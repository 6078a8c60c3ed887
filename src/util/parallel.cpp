#include "util/parallel.hpp"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <exception>
#include <thread>
#include <vector>

namespace deflate::util {

namespace {

/// DEFLATE_THREADS when it is a positive integer, else the hardware
/// concurrency (at least 1).
std::size_t worker_count() {
  if (const char* env = std::getenv("DEFLATE_THREADS")) {
    const long parsed = std::atol(env);
    if (parsed > 0) return static_cast<std::size_t>(parsed);
  }
  return std::max<std::size_t>(1, std::thread::hardware_concurrency());
}

}  // namespace

void parallel_for(std::size_t n,
                  const std::function<void(std::size_t, std::size_t)>& body) {
  if (n == 0) return;
  const std::size_t workers = worker_count();
  // Four chunks per thread, claimed in order: uneven items (one sweep case
  // per index) still balance across the threads.
  const std::size_t target = std::min(n, workers * 4);
  const std::size_t chunk = (n + target - 1) / target;
  const std::size_t chunks = (n + chunk - 1) / chunk;
  std::vector<std::exception_ptr> errors(chunks);
  std::atomic<std::size_t> next_chunk{0};
  const auto run = [&] {
    for (std::size_t c = next_chunk.fetch_add(1); c < chunks;
         c = next_chunk.fetch_add(1)) {
      try {
        body(c * chunk, std::min(n, (c + 1) * chunk));
      } catch (...) {
        errors[c] = std::current_exception();
      }
    }
  };

  // The chunks run on threads this call starts even with one worker,
  // never inline on the caller. Measured on perfbench's `market` workload
  // at DEFLATE_THREADS=1: running them inline cost 14% of its VMs/s (5 of
  // 5 paired runs), while per-call threads stayed within the run-to-run
  // spread of a persistent worker thread. Which thread allocates
  // AzureTraceGenerator::generate()'s records matters there; the cause was
  // not isolated.
  std::vector<std::thread> threads;
  threads.reserve(std::min(workers, chunks));
  for (std::size_t t = 0; t < std::min(workers, chunks); ++t) {
    try {
      threads.emplace_back(run);
    } catch (...) {
      // The threads already started claim every chunk; with none, fail.
      if (threads.empty()) throw;
      break;
    }
  }
  for (std::thread& thread : threads) thread.join();
  for (const std::exception_ptr& error : errors) {
    if (error) std::rethrow_exception(error);
  }
}

}  // namespace deflate::util
