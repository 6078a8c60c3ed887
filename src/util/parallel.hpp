// Fork-join parallel_for: each call starts its own threads, runs the range
// in contiguous chunks on them and joins them before it returns.
//
// HPC-guide alignment: parallelism is explicit and structured — callers
// decompose work into independent ranges; every item owns a derived RNG
// stream and writes only its own output slot, so numeric results do not
// depend on the number of threads or on which thread ran which chunk
// (util/rng.hpp). A reduction over items is merged in item order after the
// call returns, never as chunks finish.
//
// There is no pool to share, so a body that itself calls parallel_for just
// starts more threads: a nested call cannot deadlock.
#pragma once

#include <cstddef>
#include <functional>

namespace deflate::util {

/// Splits [0, n) into contiguous chunks and runs `body(begin, end)` on
/// threads this call starts: DEFLATE_THREADS of them when that variable is
/// a positive integer (read on every call), else the hardware concurrency.
/// Blocks until every chunk has finished, then rethrows the first
/// exception in chunk order. With n == 0 this is a no-op.
void parallel_for(std::size_t n,
                  const std::function<void(std::size_t, std::size_t)>& body);

}  // namespace deflate::util
