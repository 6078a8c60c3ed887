#include "util/parallel.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <stdexcept>
#include <vector>

#include "util/rng.hpp"

namespace du = deflate::util;

TEST(ParallelFor, CoversEveryIndexExactlyOnce) {
  const std::size_t n = 10007;
  std::vector<std::atomic<int>> hits(n);
  du::parallel_for(n, [&](std::size_t begin, std::size_t end) {
    for (std::size_t i = begin; i < end; ++i) ++hits[i];
  });
  for (std::size_t i = 0; i < n; ++i) ASSERT_EQ(hits[i].load(), 1);
}

TEST(ParallelFor, ZeroIsNoop) {
  bool called = false;
  du::parallel_for(0, [&](std::size_t, std::size_t) { called = true; });
  EXPECT_FALSE(called);
}

// The call joins every chunk before it rethrows: a throwing chunk neither
// abandons the others nor leaves them running past the call.
TEST(ParallelFor, PropagatesBodyException) {
  const std::size_t n = 100;
  std::vector<std::atomic<int>> hits(n);
  EXPECT_THROW(du::parallel_for(n,
                                [&](std::size_t begin, std::size_t end) {
                                  if (begin == 0) throw std::logic_error("x");
                                  for (std::size_t i = begin; i < end; ++i) {
                                    ++hits[i];
                                  }
                                }),
               std::logic_error);
  // Only the first chunk threw; every index past it was visited, once.
  std::size_t first_chunk_end = 0;
  while (first_chunk_end < n && hits[first_chunk_end].load() == 0) {
    ++first_chunk_end;
  }
  EXPECT_GT(first_chunk_end, 0U);
  EXPECT_LT(first_chunk_end, n);
  for (std::size_t i = first_chunk_end; i < n; ++i) {
    ASSERT_EQ(hits[i].load(), 1) << "index " << i;
  }
}

TEST(ParallelFor, RethrowsTheFirstExceptionInChunkOrder) {
  try {
    du::parallel_for(1000, [](std::size_t begin, std::size_t) {
      throw std::runtime_error(std::to_string(begin));
    });
    FAIL() << "parallel_for swallowed the body's exceptions";
  } catch (const std::runtime_error& error) {
    EXPECT_STREQ(error.what(), "0");
  }
}

TEST(ParallelFor, DeterministicWithDerivedStreams) {
  // The canonical usage pattern: per-item derived RNG streams must make the
  // result independent of chunking/thread scheduling.
  const std::size_t n = 2000;
  auto compute = [&] {
    std::vector<double> out(n);
    du::parallel_for(n, [&](std::size_t begin, std::size_t end) {
      for (std::size_t i = begin; i < end; ++i) {
        du::Rng rng = du::Rng::keyed(1234, i);
        out[i] = rng.normal(0.0, 1.0) + rng.exponential(2.0);
      }
    });
    return out;
  };
  const auto a = compute();
  const auto b = compute();
  EXPECT_EQ(a, b);
}

// A body that itself calls parallel_for starts more threads of its own;
// with no shared pool there is no slot to wait for, so it completes.
TEST(ParallelFor, NestedCallCompletes) {
  const std::size_t outer = 8;
  const std::size_t n = 4096;
  std::vector<std::atomic<int>> hits(n);
  du::parallel_for(outer, [&](std::size_t begin, std::size_t end) {
    for (std::size_t o = begin; o < end; ++o) {
      du::parallel_for(n, [&hits](std::size_t b, std::size_t e) {
        for (std::size_t i = b; i < e; ++i) ++hits[i];
      });
    }
  });
  for (std::size_t i = 0; i < n; ++i) {
    ASSERT_EQ(hits[i].load(), static_cast<int>(outer));
  }
}

TEST(ParallelFor, SumMatchesSerial) {
  const std::size_t n = 100000;
  std::vector<double> values(n);
  for (std::size_t i = 0; i < n; ++i) values[i] = static_cast<double>(i % 97);
  std::vector<double> partial(n);
  du::parallel_for(n, [&](std::size_t begin, std::size_t end) {
    for (std::size_t i = begin; i < end; ++i) partial[i] = values[i] * 2.0;
  });
  const double serial =
      std::accumulate(values.begin(), values.end(), 0.0) * 2.0;
  const double parallel = std::accumulate(partial.begin(), partial.end(), 0.0);
  EXPECT_DOUBLE_EQ(serial, parallel);
}
