// Multi-dimensional resource vectors: CPU cores, memory MiB, disk MB/s,
// network Mbps. The paper deflates each resource individually (§5.1.1) and
// places VMs by cosine similarity of demand/availability vectors (§5.2).
#pragma once

#include <array>
#include <cmath>
#include <cstddef>
#include <iosfwd>
#include <string_view>

namespace deflate::res {

enum class Resource : std::size_t { Cpu = 0, Memory = 1, DiskBw = 2, NetBw = 3 };

inline constexpr std::size_t kNumResources = 4;

[[nodiscard]] std::string_view resource_name(Resource r) noexcept;

inline constexpr std::array<Resource, kNumResources> all_resources{
    Resource::Cpu, Resource::Memory, Resource::DiskBw, Resource::NetBw};

/// Units: Cpu in cores, Memory in MiB, DiskBw in MB/s, NetBw in Mbps.
class ResourceVector {
 public:
  constexpr ResourceVector() noexcept = default;
  constexpr ResourceVector(double cpu, double memory_mib, double disk_bw,
                           double net_bw) noexcept
      : values_{cpu, memory_mib, disk_bw, net_bw} {}

  /// Vector with the same value in every dimension.
  [[nodiscard]] static constexpr ResourceVector uniform(double v) noexcept {
    return ResourceVector(v, v, v, v);
  }

  [[nodiscard]] constexpr double operator[](Resource r) const noexcept {
    return values_[static_cast<std::size_t>(r)];
  }
  constexpr double& operator[](Resource r) noexcept {
    return values_[static_cast<std::size_t>(r)];
  }

  [[nodiscard]] constexpr double cpu() const noexcept { return (*this)[Resource::Cpu]; }
  [[nodiscard]] constexpr double memory() const noexcept {
    return (*this)[Resource::Memory];
  }
  [[nodiscard]] constexpr double disk_bw() const noexcept {
    return (*this)[Resource::DiskBw];
  }
  [[nodiscard]] constexpr double net_bw() const noexcept {
    return (*this)[Resource::NetBw];
  }

  constexpr ResourceVector& operator+=(const ResourceVector& rhs) noexcept {
    for (std::size_t i = 0; i < kNumResources; ++i) values_[i] += rhs.values_[i];
    return *this;
  }
  constexpr ResourceVector& operator-=(const ResourceVector& rhs) noexcept {
    for (std::size_t i = 0; i < kNumResources; ++i) values_[i] -= rhs.values_[i];
    return *this;
  }
  constexpr ResourceVector& operator*=(double s) noexcept {
    for (auto& v : values_) v *= s;
    return *this;
  }

  friend constexpr ResourceVector operator+(ResourceVector a,
                                            const ResourceVector& b) noexcept {
    return a += b;
  }
  friend constexpr ResourceVector operator-(ResourceVector a,
                                            const ResourceVector& b) noexcept {
    return a -= b;
  }
  friend constexpr ResourceVector operator*(ResourceVector a, double s) noexcept {
    return a *= s;
  }
  friend constexpr ResourceVector operator*(double s, ResourceVector a) noexcept {
    return a *= s;
  }

  friend constexpr bool operator==(const ResourceVector&,
                                   const ResourceVector&) noexcept = default;

  /// Elementwise tests.
  [[nodiscard]] constexpr bool all_leq(const ResourceVector& rhs,
                                       double eps = 1e-9) const noexcept {
    for (std::size_t i = 0; i < kNumResources; ++i) {
      if (values_[i] > rhs.values_[i] + eps) return false;
    }
    return true;
  }
  [[nodiscard]] constexpr bool any_negative(double eps = 1e-9) const noexcept {
    for (const double v : values_) {
      if (v < -eps) return true;
    }
    return false;
  }
  [[nodiscard]] constexpr bool is_zero(double eps = 1e-9) const noexcept {
    for (const double v : values_) {
      if (v > eps || v < -eps) return false;
    }
    return true;
  }

  [[nodiscard]] constexpr ResourceVector elementwise_min(
      const ResourceVector& rhs) const noexcept {
    ResourceVector out;
    for (std::size_t i = 0; i < kNumResources; ++i) {
      out.values_[i] = values_[i] < rhs.values_[i] ? values_[i] : rhs.values_[i];
    }
    return out;
  }
  [[nodiscard]] constexpr ResourceVector elementwise_max(
      const ResourceVector& rhs) const noexcept {
    ResourceVector out;
    for (std::size_t i = 0; i < kNumResources; ++i) {
      out.values_[i] = values_[i] > rhs.values_[i] ? values_[i] : rhs.values_[i];
    }
    return out;
  }
  /// Clamps negatives to zero (availability vectors must stay physical).
  [[nodiscard]] constexpr ResourceVector clamped_nonneg() const noexcept {
    ResourceVector out = *this;
    for (auto& v : out.values_) {
      if (v < 0.0) v = 0.0;
    }
    return out;
  }

  /// Inline so the placement scan's per-candidate kernels inline them.
  /// The summation order (Cpu, Memory, DiskBw, NetBw, from 0.0) is fixed:
  /// golden runs pin placement scores bit for bit.
  [[nodiscard]] constexpr double dot(const ResourceVector& rhs) const noexcept {
    double sum = 0.0;
    for (std::size_t i = 0; i < kNumResources; ++i) {
      sum += values_[i] * rhs.values_[i];
    }
    return sum;
  }
  [[nodiscard]] double norm() const noexcept { return std::sqrt(dot(*this)); }

 private:
  std::array<double, kNumResources> values_{};
};

/// Cosine similarity as in §5.2 (fitness). If either vector has zero norm a
/// small epsilon is used, mirroring the paper's division-by-zero guard.
[[nodiscard]] double cosine_similarity(const ResourceVector& a,
                                       const ResourceVector& b) noexcept;

std::ostream& operator<<(std::ostream& out, const ResourceVector& v);

}  // namespace deflate::res
