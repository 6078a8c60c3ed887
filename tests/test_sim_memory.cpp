// Heap bytes a record-vector replay allocates while it runs.
//
// The simulator keeps the sorted trace it was handed and every active VM
// reads its record, usage series included, where it lies in that vector.
// A run that copied each arrival's record would allocate the whole
// trace's series bytes a second time; this test counts the bytes run()
// asks of global operator new and bounds them far below that. It is its
// own executable because it replaces operator new for the whole program.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>

#include "simcluster/cluster_sim.hpp"

namespace {

std::atomic<std::size_t> g_allocated_bytes{0};

void* counted_malloc(std::size_t size) noexcept {
  g_allocated_bytes.fetch_add(size, std::memory_order_relaxed);
  return std::malloc(size == 0 ? 1 : size);
}

}  // namespace

// Every unaligned form, so each allocation is counted and each pointer is
// released by the same allocator that made it (std::stable_sort's buffer
// uses the nothrow form).
void* operator new(std::size_t size) {
  if (void* p = counted_malloc(size)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) {
  if (void* p = counted_malloc(size)) return p;
  throw std::bad_alloc();
}
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  return counted_malloc(size);
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  return counted_malloc(size);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t /*size*/) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t /*size*/) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept { std::free(p); }

namespace sc = deflate::simcluster;
namespace tr = deflate::trace;
namespace hv = deflate::hv;

namespace {

constexpr std::size_t kVms = 500;
constexpr std::size_t kSamples = 10000;  // ~35 days at 5-minute intervals

/// Non-deflatable VMs with long constant series, one arriving per hour:
/// nearly all of them are active at once. (A deflatable VM also computes
/// its p95 once at arrival from a scratch copy of its series; that is
/// per-VM work, not the copy this test guards, so the trace has none.)
std::vector<tr::VmRecord> long_series_trace() {
  std::vector<tr::VmRecord> records(kVms);
  for (std::size_t i = 0; i < kVms; ++i) {
    tr::VmRecord& record = records[i];
    record.id = i;
    record.workload = hv::WorkloadClass::DelayInsensitive;
    record.vcpus = 2;
    record.memory_mib = 4096.0;
    record.start = deflate::sim::SimTime::from_hours(static_cast<double>(i));
    record.end = record.start +
                 deflate::sim::SimTime::from_micros(
                     tr::kTraceInterval.micros() *
                     static_cast<std::int64_t>(kSamples));
    record.cpu = tr::UtilizationSeries(std::vector<float>(kSamples, 0.3F));
  }
  return records;
}

}  // namespace

TEST(SimMemory, RecordVectorRunDoesNotCopySeries) {
  sc::SimConfig config;
  config.server_count = 40;
  sc::TraceDrivenSimulator simulator(long_series_trace(), config);

  g_allocated_bytes.store(0, std::memory_order_relaxed);
  const sc::SimMetrics metrics = simulator.run();
  const std::size_t run_bytes = g_allocated_bytes.load(std::memory_order_relaxed);

  ASSERT_EQ(metrics.vm_count, kVms);
  ASSERT_EQ(metrics.rejections, 0U);
  EXPECT_GT(simulator.peak_active_records(), kVms * 9 / 10);
  const std::size_t series_bytes = kVms * kSamples * sizeof(float);
  EXPECT_LT(run_bytes, series_bytes / 10)
      << "run() allocated " << run_bytes << " bytes against "
      << series_bytes << " bytes of series";
}
