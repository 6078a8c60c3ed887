// Heap bytes a replay allocates and holds while it runs.
//
// On both paths an arrival's record is moved into its VM's slot (out of
// the record-vector simulator's sorted trace, or out of the stream), only
// a deflatable VM's usage series stays there, and a departing VM's record
// is freed. A run that copied each arrival's record would allocate the
// whole trace's series bytes a second time; one test counts the bytes
// run() asks of global operator new and bounds them far below that.
// Another tracks the live heap bytes during a stream run whose VMs are
// nearly all active at once and none deflatable, and bounds their peak
// far below the series bytes. A third checks that once every VM of a
// record-vector run has departed, the simulator no longer holds their
// series.
//
// It is its own executable because it replaces operator new for the whole
// program.
#include <gtest/gtest.h>
#include <malloc.h>

#include <atomic>
#include <cstdlib>
#include <new>

#include "simcluster/cluster_sim.hpp"
#include "trace/replay.hpp"

namespace {

std::atomic<std::size_t> g_allocated_bytes{0};
/// Live bytes, as malloc_usable_size counts them, and their high-water
/// mark since the last reset.
std::atomic<std::size_t> g_live_bytes{0};
std::atomic<std::size_t> g_peak_live_bytes{0};

void* counted_malloc(std::size_t size) noexcept {
  g_allocated_bytes.fetch_add(size, std::memory_order_relaxed);
  void* p = std::malloc(size == 0 ? 1 : size);
  if (p != nullptr) {
    const std::size_t usable = malloc_usable_size(p);
    const std::size_t live =
        g_live_bytes.fetch_add(usable, std::memory_order_relaxed) + usable;
    std::size_t peak = g_peak_live_bytes.load(std::memory_order_relaxed);
    while (live > peak && !g_peak_live_bytes.compare_exchange_weak(
                              peak, live, std::memory_order_relaxed)) {
    }
  }
  return p;
}

void counted_free(void* p) noexcept {
  if (p == nullptr) return;
  g_live_bytes.fetch_sub(malloc_usable_size(p), std::memory_order_relaxed);
  std::free(p);
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
void operator delete(void* p) noexcept { counted_free(p); }
void operator delete[](void* p) noexcept { counted_free(p); }
void operator delete(void* p, std::size_t /*size*/) noexcept { counted_free(p); }
void operator delete[](void* p, std::size_t /*size*/) noexcept { counted_free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { counted_free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept { counted_free(p); }

namespace sc = deflate::simcluster;
namespace tr = deflate::trace;
namespace hv = deflate::hv;

namespace {

constexpr std::size_t kVms = 500;
constexpr std::size_t kSamples = 10000;  // ~35 days at 5-minute intervals
constexpr std::size_t kSeriesBytes = kVms * kSamples * sizeof(float);

/// Non-deflatable VM `i` with a long constant series, arriving at hour i:
/// nearly all of them are active at once. (A deflatable VM also computes
/// its p95 once at arrival from a scratch copy of its series, and keeps
/// its series until it departs; that is per-VM work the accounting needs,
/// not the copy or the unread series these tests guard, so the traces have
/// none.)
tr::VmRecord long_series_vm(std::size_t i) {
  tr::VmRecord record;
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
  return record;
}

std::vector<tr::VmRecord> long_series_trace() {
  std::vector<tr::VmRecord> records;
  records.reserve(kVms);
  for (std::size_t i = 0; i < kVms; ++i) records.push_back(long_series_vm(i));
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
  EXPECT_LT(run_bytes, kSeriesBytes / 10)
      << "run() allocated " << run_bytes << " bytes against "
      << kSeriesBytes << " bytes of series";
}

TEST(SimMemory, StreamRunHoldsNoUnreadSeries) {
  // The stream materializes only the record next() returns, so it holds
  // no series of its own; the simulator must not hold the series of every
  // active VM.
  std::vector<tr::ArrivalStub> stubs;
  stubs.reserve(kVms);
  for (std::size_t i = 0; i < kVms; ++i) {
    stubs.push_back(long_series_vm(i).stub());
  }
  tr::IndexedArrivalStream stream(
      std::move(stubs),
      [](std::uint64_t id) {
        return long_series_vm(static_cast<std::size_t>(id));
      });
  sc::SimConfig config;
  config.server_count = 40;
  sc::TraceDrivenSimulator simulator(stream, config);

  const std::size_t live_before = g_live_bytes.load(std::memory_order_relaxed);
  g_peak_live_bytes.store(live_before, std::memory_order_relaxed);
  const sc::SimMetrics metrics = simulator.run();
  const std::size_t peak_run_bytes =
      g_peak_live_bytes.load(std::memory_order_relaxed) - live_before;

  ASSERT_EQ(metrics.vm_count, kVms);
  ASSERT_EQ(metrics.rejections, 0U);
  EXPECT_GT(simulator.peak_active_records(), kVms * 9 / 10);
  EXPECT_LT(peak_run_bytes, kSeriesBytes / 4)
      << "run() held up to " << peak_run_bytes << " live bytes against "
      << kSeriesBytes << " bytes of series";
}

TEST(SimMemory, RecordVectorRunReleasesDepartedSeries) {
  // Every other VM is deflatable and keeps its series in its slot until it
  // departs; the others drop theirs at arrival. After run() every VM has
  // departed, so the simulator, still alive, holds almost none of the
  // series bytes it was handed.
  const std::size_t live_before = g_live_bytes.load(std::memory_order_relaxed);
  std::vector<tr::VmRecord> records = long_series_trace();
  for (std::size_t i = 0; i < records.size(); i += 2) {
    records[i].workload = hv::WorkloadClass::Interactive;
  }
  sc::SimConfig config;
  config.server_count = 40;
  sc::TraceDrivenSimulator simulator(std::move(records), config);
  const sc::SimMetrics metrics = simulator.run();
  const std::size_t live_after = g_live_bytes.load(std::memory_order_relaxed);
  const std::size_t held = live_after > live_before ? live_after - live_before : 0;

  ASSERT_EQ(metrics.vm_count, kVms);
  ASSERT_EQ(metrics.deflatable_count, kVms / 2);
  ASSERT_EQ(metrics.rejections, 0U);
  EXPECT_LT(held, kSeriesBytes / 20)
      << "the simulator still holds " << held << " live bytes against "
      << kSeriesBytes << " bytes of series";
}
