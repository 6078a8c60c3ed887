// Every sample of the benchmark-sized Azure traces against the reference
// series formula (std::pow(s, 1.5), fmod and sin on every sample), bit for
// bit: the `market` trace (100k VMs, 72 h) and the `replay` trace (160k
// VMs, 24 h) of perfbench, at seeds 1-3. The generator computes the power
// as s * sqrt(s), which may differ from pow by one double ulp; this pins
// that the float samples, and with them every digest, do not move.
// Labelled `scale` (DEFLATE_SCALE_TESTS): it compares about 42M samples.
#include <gtest/gtest.h>

#include <cstdint>

#include "azure_reference.hpp"
#include "trace/azure.hpp"

namespace {

namespace tr = deflate::trace;
using deflate::testutil::expect_same_vm;
using deflate::testutil::reference_vm;

/// Compares every VM of the trace; returns the number of samples compared.
std::size_t expect_trace_matches_reference(std::size_t vm_count, int hours,
                                           std::uint64_t seed) {
  tr::AzureTraceConfig config;
  config.vm_count = vm_count;
  config.seed = seed;
  config.duration = deflate::sim::SimTime::from_hours(hours);
  const tr::AzureTraceGenerator gen(config);
  std::size_t samples = 0;
  for (std::uint64_t id = 0; id < config.vm_count; ++id) {
    const tr::VmRecord got = gen.generate_vm(id);
    expect_same_vm(got, reference_vm(config, id, true).record);
    if (::testing::Test::HasFatalFailure()) return samples;
    samples += got.cpu.size();
  }
  return samples;
}

}  // namespace

TEST(AzureTraceScale, MarketTraceMatchesReferenceFormula) {
  for (const std::uint64_t seed : {1ULL, 2ULL, 3ULL}) {
    SCOPED_TRACE(::testing::Message() << "market, seed " << seed);
    const std::size_t samples =
        expect_trace_matches_reference(100000, 72, seed);
    if (HasFatalFailure()) return;
    EXPECT_GT(samples, 7'000'000U);
  }
}

TEST(AzureTraceScale, ReplayTraceMatchesReferenceFormula) {
  for (const std::uint64_t seed : {1ULL, 2ULL, 3ULL}) {
    SCOPED_TRACE(::testing::Message() << "replay, seed " << seed);
    const std::size_t samples =
        expect_trace_matches_reference(160000, 24, seed);
    if (HasFatalFailure()) return;
    EXPECT_GT(samples, 6'500'000U);
  }
}
