// A flat id -> value index: the one way the simulator and the fleet find a
// VM by its 64-bit id (the simulator's slot, the manager's server).
#pragma once

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace deflate::util {

/// Maps 64-bit ids to uint32 values: one open-addressing table with a
/// power-of-two capacity, linear probing and backward-shift deletion (no
/// tombstones, so probe runs stay as short as the live load makes them).
/// Kept at most half full; it grows and never shrinks. kNone is reserved
/// as the empty marker and cannot be stored as a value.
class IdIndex {
 public:
  static constexpr std::uint32_t kNone = UINT32_MAX;

  [[nodiscard]] std::size_t size() const noexcept { return size_; }

  /// The value of `id`, or kNone.
  [[nodiscard]] std::uint32_t find(std::uint64_t id) const noexcept {
    if (entries_.empty()) return kNone;
    for (std::size_t i = home(id);; i = (i + 1) & mask_) {
      const Entry& entry = entries_[i];
      if (entry.value == kNone) return kNone;
      if (entry.id == id) return entry.value;
    }
  }

  /// Maps `id` to `value`; returns false, changing nothing, when `id` is
  /// already mapped.
  bool insert(std::uint64_t id, std::uint32_t value) {
    if (2 * (size_ + 1) > entries_.size()) {
      rehash(std::max<std::size_t>(16, 2 * entries_.size()));
    }
    std::size_t i = home(id);
    for (; entries_[i].value != kNone; i = (i + 1) & mask_) {
      if (entries_[i].id == id) return false;
    }
    entries_[i] = {id, value};
    ++size_;
    return true;
  }

  /// Unmaps `id`; a no-op when it is not mapped.
  void erase(std::uint64_t id) noexcept {
    if (entries_.empty()) return;
    std::size_t hole = home(id);
    for (; entries_[hole].value != kNone; hole = (hole + 1) & mask_) {
      if (entries_[hole].id == id) break;
    }
    if (entries_[hole].value == kNone) return;
    // Pull later entries of the run back into the hole while that keeps
    // them reachable: an entry may move to the hole only if its home is
    // at or before the hole along its probe path.
    for (std::size_t j = (hole + 1) & mask_; entries_[j].value != kNone;
         j = (j + 1) & mask_) {
      if (((j - home(entries_[j].id)) & mask_) >= ((j - hole) & mask_)) {
        entries_[hole] = entries_[j];
        hole = j;
      }
    }
    entries_[hole].value = kNone;
    --size_;
  }

 private:
  struct Entry {
    std::uint64_t id = 0;
    std::uint32_t value = kNone;
  };

  /// Fibonacci hashing: the top bits of id * 2^64/phi spread dense and
  /// sparse ids alike over the table.
  [[nodiscard]] std::size_t home(std::uint64_t id) const noexcept {
    return static_cast<std::size_t>((id * 0x9E3779B97F4A7C15ULL) >> shift_);
  }

  void rehash(std::size_t capacity) {
    std::vector<Entry> old = std::move(entries_);
    entries_.assign(capacity, Entry{});
    mask_ = capacity - 1;
    shift_ = 64U - static_cast<unsigned>(std::countr_zero(capacity));
    for (const Entry& entry : old) {
      if (entry.value == kNone) continue;
      std::size_t i = home(entry.id);
      while (entries_[i].value != kNone) i = (i + 1) & mask_;
      entries_[i] = entry;
    }
  }

  std::vector<Entry> entries_;
  std::size_t size_ = 0;
  std::size_t mask_ = 0;
  unsigned shift_ = 64;
};

}  // namespace deflate::util
