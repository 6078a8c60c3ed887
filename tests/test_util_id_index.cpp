#include "util/id_index.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <random>
#include <vector>

namespace du = deflate::util;

namespace {

/// A strictly increasing map onto sparse ids above 2^32.
std::uint64_t sparse_id(std::uint64_t id) {
  constexpr std::uint64_t kStride = 1'000'003;
  return (std::uint64_t{1} << 32) + id * kStride + (id * 7'919) % kStride;
}

}  // namespace

TEST(IdIndex, MatchesAMapUnderChurn) {
  // Random inserts and erases over ids clustered to collide (dense low
  // ids, sparse ids above 2^32, and ids sharing their low bits), with
  // growth and backward-shift deletes along the way; every lookup must
  // agree with a std::map.
  std::mt19937_64 rng(28);
  std::vector<std::uint64_t> pool;
  for (std::uint64_t i = 0; i < 300; ++i) {
    pool.push_back(i);
    pool.push_back(sparse_id(i));
    pool.push_back(i << 40);
  }
  du::IdIndex index;
  std::map<std::uint64_t, std::uint32_t> reference;
  for (std::uint32_t step = 0; step < 60'000; ++step) {
    const std::uint64_t id = pool[rng() % pool.size()];
    // Grow towards most of the pool, then drain back down.
    const bool draining = step > 40'000;
    if (rng() % 3 == 0 || draining) {
      index.erase(id);
      reference.erase(id);
    } else {
      const bool inserted = index.insert(id, step);
      EXPECT_EQ(inserted, reference.emplace(id, step).second) << "id " << id;
    }
    ASSERT_EQ(index.size(), reference.size());
    if (step % 97 == 0) {
      for (const std::uint64_t probe : pool) {
        const auto it = reference.find(probe);
        ASSERT_EQ(index.find(probe),
                  it == reference.end() ? du::IdIndex::kNone : it->second)
            << "step " << step << " id " << probe;
      }
    }
  }
}
