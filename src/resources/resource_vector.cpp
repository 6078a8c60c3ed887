#include "resources/resource_vector.hpp"

#include <ostream>

namespace deflate::res {

std::string_view resource_name(Resource r) noexcept {
  switch (r) {
    case Resource::Cpu: return "cpu";
    case Resource::Memory: return "memory";
    case Resource::DiskBw: return "disk_bw";
    case Resource::NetBw: return "net_bw";
  }
  return "unknown";
}

double cosine_similarity(const ResourceVector& a, const ResourceVector& b) noexcept {
  constexpr double kEps = 1e-12;
  const double denom = a.norm() * b.norm();
  return a.dot(b) / (denom > kEps ? denom : kEps);
}

std::ostream& operator<<(std::ostream& out, const ResourceVector& v) {
  out << "{cpu=" << v.cpu() << ", mem=" << v.memory() << "MiB, disk=" << v.disk_bw()
      << "MB/s, net=" << v.net_bw() << "Mbps}";
  return out;
}

}  // namespace deflate::res
