// Robustness fuzzing for the two trace ingestion paths (run under
// ASan/UBSan in CI, mirroring tests/test_net_codec.cpp's every-prefix
// pattern):
//
//   * trace_io CSV loading — every prefix, every single-byte bit flip and
//     semantically-invalid rows must either load a fully valid fleet or
//     throw a clean std::runtime_error. Crashes, out-of-bounds reads and
//     partially-validated fleets are the failure modes under test.
//   * capture-file arrival streams (src/trace/replay.hpp) — truncated,
//     reordered, oversized and bit-flipped capture bytes must never
//     produce a partial fleet: the stream either builds completely or
//     make_arrival_stream throws.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "net/codec.hpp"
#include "net/capture.hpp"
#include "net/service.hpp"
#include "trace/azure.hpp"
#include "trace/replay.hpp"
#include "trace/trace_io.hpp"

namespace {

using namespace deflate;

// --- shared helpers ---------------------------------------------------------

class TempFile {
 public:
  explicit TempFile(std::string name) : path_(std::move(name)) {
    std::remove(path_.c_str());
  }
  ~TempFile() { std::remove(path_.c_str()); }
  [[nodiscard]] const std::string& path() const noexcept { return path_; }

  void write(const std::string& bytes) const {
    std::ofstream out(path_, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }

 private:
  std::string path_;
};

/// Record-level invariants that every successfully loaded fleet must
/// satisfy — corruption may legitimately parse, but never into an invalid
/// record.
void expect_valid_fleet(const std::vector<trace::VmRecord>& records) {
  for (const trace::VmRecord& record : records) {
    EXPECT_GE(record.vcpus, 1);
    EXPECT_GE(record.memory_mib, 0.0);
    EXPECT_GE(record.end, record.start);
    EXPECT_GE(record.start, sim::SimTime{});
    EXPECT_GE(record.cpu.samples().size(), 1U);
    for (const float sample : record.cpu.samples()) {
      EXPECT_GE(sample, 0.0F);
      EXPECT_LE(sample, 1.0F);
    }
  }
}

/// Runs the CSV reader on arbitrary bytes: the only acceptable outcomes
/// are a valid fleet or std::runtime_error. Anything else (crash, OOB —
/// caught by ASan — or a foreign exception type) fails the test.
void expect_clean_csv_outcome(const std::string& bytes,
                              const std::string& label) {
  std::istringstream in(bytes);
  try {
    expect_valid_fleet(trace::read_trace_csv(in));
  } catch (const std::runtime_error&) {
    // clean rejection
  } catch (const std::exception& error) {
    ADD_FAILURE() << label << ": foreign exception type escaped: "
                  << error.what();
  }
}

std::string sample_trace_csv() {
  trace::AzureTraceConfig config;
  config.vm_count = 6;
  config.seed = 3;
  config.duration = sim::SimTime::from_hours(6);
  const auto records = trace::AzureTraceGenerator(config).generate();
  std::ostringstream out;
  trace::write_trace_csv(out, records);
  return out.str();
}

}  // namespace

// --- trace_io CSV -----------------------------------------------------------

TEST(TraceIoFuzz, RoundTripStillLoadsCleanly) {
  std::istringstream in(sample_trace_csv());
  const auto records = trace::read_trace_csv(in);
  EXPECT_EQ(records.size(), 6U);
  expect_valid_fleet(records);
}

TEST(TraceIoFuzz, EveryPrefixEitherLoadsOrThrowsCleanly) {
  const std::string csv = sample_trace_csv();
  for (std::size_t cut = 0; cut <= csv.size(); ++cut) {
    expect_clean_csv_outcome(csv.substr(0, cut),
                             "prefix of length " + std::to_string(cut));
  }
}

TEST(TraceIoFuzz, Everysingle_byteBitFlipIsHandled) {
  const std::string csv = sample_trace_csv();
  for (std::size_t pos = 0; pos < csv.size(); ++pos) {
    for (const char flip : {char(0x01), char(0x20), char(0x80)}) {
      std::string mutated = csv;
      mutated[pos] = static_cast<char>(mutated[pos] ^ flip);
      expect_clean_csv_outcome(mutated, "bit flip at " + std::to_string(pos));
    }
  }
}

TEST(TraceIoFuzz, ReorderedRowsLoadTheSameFleet) {
  const std::string csv = sample_trace_csv();
  std::vector<std::string> lines;
  std::istringstream split(csv);
  for (std::string line; std::getline(split, line);) lines.push_back(line);
  ASSERT_GE(lines.size(), 3U);
  // Rotate the data rows (header stays first): arrival order in the file
  // is irrelevant, the same fleet must load.
  std::rotate(lines.begin() + 1, lines.begin() + 2, lines.end());
  std::string reordered;
  for (const std::string& line : lines) reordered += line + "\n";

  std::istringstream a(csv), b(reordered);
  const auto original = trace::read_trace_csv(a);
  const auto rotated = trace::read_trace_csv(b);
  ASSERT_EQ(original.size(), rotated.size());
  auto ids = [](const std::vector<trace::VmRecord>& records) {
    std::vector<std::uint64_t> out;
    out.reserve(records.size());
    for (const auto& record : records) out.push_back(record.id);
    std::sort(out.begin(), out.end());
    return out;
  };
  EXPECT_EQ(ids(original), ids(rotated));
}

TEST(TraceIoFuzz, SemanticallyInvalidRowsAreRejected) {
  const std::string header =
      "id,class,vcpus,memory_mib,disk_bw_mbps,net_bw_mbps,start_us,end_us,"
      "cpu_series\n";
  const std::vector<std::pair<const char*, const char*>> cases = {
      {"end precedes start",
       "1,interactive,2,4096,50,500,7200000000,3600000000,0.5"},
      {"zero vcpus", "1,interactive,0,4096,50,500,0,3600000000,0.5"},
      {"negative memory", "1,interactive,2,-1,50,500,0,3600000000,0.5"},
      {"negative start", "1,interactive,2,4096,50,500,-5,3600000000,0.5"},
      {"sample above 1", "1,interactive,2,4096,50,500,0,3600000000,0.5;1.7"},
      {"negative sample", "1,interactive,2,4096,50,500,0,3600000000,-0.2"},
      {"non-finite memory", "1,interactive,2,nan,50,500,0,3600000000,0.5"},
      {"empty series", "1,interactive,2,4096,50,500,0,3600000000,"},
      {"trailing junk id", "1x,interactive,2,4096,50,500,0,3600000000,0.5"},
      {"missing column", "1,interactive,2,4096,50,500,0,3600000000"},
      {"extra column", "1,interactive,2,4096,50,500,0,3600000000,0.5,9"},
      {"duplicate id",
       "1,interactive,2,4096,50,500,0,3600000000,0.5\n"
       "1,interactive,2,4096,50,500,0,3600000000,0.5"},
  };
  for (const auto& [label, row] : cases) {
    std::istringstream in(header + row + "\n");
    EXPECT_THROW((void)trace::read_trace_csv(in), std::runtime_error) << label;
  }
  // Control: the base row itself is valid.
  std::istringstream in(header +
                        "1,interactive,2,4096,50,500,0,3600000000,0.5\n");
  EXPECT_EQ(trace::read_trace_csv(in).size(), 1U);
  // An unrecognized class token is NOT an error: the column is advisory
  // and foreign labels degrade to Unknown (test_trace_io pins this).
  std::istringstream foreign(header +
                             "1,spicy,2,4096,50,500,0,3600000000,0.5\n");
  const auto fleet = trace::read_trace_csv(foreign);
  ASSERT_EQ(fleet.size(), 1U);
  EXPECT_EQ(fleet[0].workload, hv::WorkloadClass::Unknown);
}

// --- capture ingestion ------------------------------------------------------

namespace {

/// The header frame `deflated --capture` writes for a default config.
std::string capture_header() {
  const std::vector<std::uint8_t> frame =
      net::encode_frame(net::CaptureHeader{net::ServiceConfig{}});
  return std::string(frame.begin(), frame.end());
}

/// Synthesizes capture bytes exactly as `deflated --capture` writes them:
/// the header frame, then [4-byte LE conn id][frame] records.
std::string synthetic_capture(std::size_t requests) {
  std::string bytes = capture_header();
  for (std::size_t i = 0; i < requests; ++i) {
    hv::VmSpec spec;
    spec.id = i + 1;
    spec.name = "vm-" + std::to_string(i + 1);
    spec.vcpus = 2;
    spec.memory_mib = 4096.0;
    spec.priority = 0.4;
    spec.deflatable = true;
    net::AdmissionRequestMsg msg;
    msg.request_id = i + 1;
    msg.request = cluster::AdmissionRequest::from_spec(
        spec, sim::SimTime::from_hours(static_cast<double>(i)));
    const std::vector<std::uint8_t> frame = net::encode_frame(msg);
    const std::uint32_t conn = 1;
    for (int b = 0; b < 4; ++b) {
      bytes.push_back(static_cast<char>((conn >> (8 * b)) & 0xFF));
    }
    bytes.append(reinterpret_cast<const char*>(frame.data()), frame.size());
  }
  return bytes;
}

/// Builds a capture-sourced stream from raw bytes: returns the stream size
/// on success, nullopt on (the only acceptable) std::runtime_error.
std::optional<std::size_t> try_capture_stream(const TempFile& file,
                                              const std::string& bytes,
                                              const std::string& label) {
  file.write(bytes);
  trace::ReplayConfig replay;
  replay.source = trace::ArrivalSource::Capture;
  replay.capture.path = file.path();
  try {
    const auto stream = trace::make_arrival_stream(replay);
    // A stream that builds must be complete and well-ordered: drain it and
    // check the arrival-order invariant — never a partial fleet.
    std::size_t count = 0;
    sim::SimTime last;
    for (auto r = stream->next(); r.has_value(); r = stream->next(), ++count) {
      EXPECT_GE(r->start, last) << label;
      EXPECT_GE(r->end, r->start) << label;
      last = r->start;
    }
    EXPECT_EQ(count, stream->size()) << label;
    return count;
  } catch (const std::runtime_error&) {
    return std::nullopt;
  } catch (const std::exception& error) {
    ADD_FAILURE() << label
                  << ": foreign exception type escaped: " << error.what();
    return std::nullopt;
  }
}

}  // namespace

TEST(CaptureFuzz, IntactSyntheticCaptureStreamsFully) {
  TempFile file("test_trace_fuzz_capture_ok.bin");
  const auto size = try_capture_stream(file, synthetic_capture(5), "intact");
  ASSERT_TRUE(size.has_value());
  EXPECT_EQ(*size, 5U);
}

TEST(CaptureFuzz, EveryPrefixTruncationIsRejectedOrComplete) {
  const std::string bytes = synthetic_capture(4);
  TempFile file("test_trace_fuzz_capture_prefix.bin");
  std::size_t rejected = 0;
  for (std::size_t cut = 0; cut <= bytes.size(); ++cut) {
    const auto size = try_capture_stream(
        file, bytes.substr(0, cut), "prefix " + std::to_string(cut));
    if (!size.has_value()) {
      ++rejected;
    } else {
      // Only record-aligned prefixes with >= 1 request may load.
      EXPECT_GE(*size, 1U);
      EXPECT_LE(*size, 4U);
    }
  }
  // Cuts inside the header or a frame must reject — the overwhelming
  // majority of positions.
  EXPECT_GT(rejected, bytes.size() / 2);
}

TEST(CaptureFuzz, EveryByteBitFlipIsRejectedOrYieldsCompleteStream) {
  const std::string bytes = synthetic_capture(3);
  TempFile file("test_trace_fuzz_capture_flip.bin");
  for (std::size_t pos = 0; pos < bytes.size(); ++pos) {
    std::string mutated = bytes;
    mutated[pos] = static_cast<char>(mutated[pos] ^ 0x01);
    (void)try_capture_stream(file, mutated, "flip " + std::to_string(pos));
    mutated[pos] = static_cast<char>(bytes[pos] ^ 0x80);
    (void)try_capture_stream(file, mutated,
                             "high flip " + std::to_string(pos));
  }
}

TEST(CaptureFuzz, OversizedFrameLengthIsRejected) {
  std::string bytes = capture_header();
  bytes.append(4, '\0');  // conn id
  // Frame header claiming a payload over kMaxPayload.
  bytes.push_back(static_cast<char>(net::kFrameMagic));
  bytes.push_back(static_cast<char>(net::kCodecVersion));
  bytes.push_back(5);  // AdmissionRequest type
  const std::uint32_t len = net::kMaxPayload + 1;
  for (int b = 0; b < 4; ++b) {
    bytes.push_back(static_cast<char>((len >> (8 * b)) & 0xFF));
  }
  TempFile file("test_trace_fuzz_capture_oversized.bin");
  EXPECT_FALSE(try_capture_stream(file, bytes, "oversized").has_value());
}

TEST(CaptureFuzz, UnexpectedFrameTypeIsRejected) {
  std::string bytes = synthetic_capture(2);
  // Append a Shutdown frame — valid codec, wrong type for a capture.
  bytes.append(4, '\0');
  const std::vector<std::uint8_t> frame = net::encode_frame(net::Shutdown{});
  bytes.append(reinterpret_cast<const char*>(frame.data()), frame.size());
  TempFile file("test_trace_fuzz_capture_badtype.bin");
  EXPECT_FALSE(try_capture_stream(file, bytes, "bad type").has_value());
}

TEST(CaptureFuzz, DecisionFramesAreSkippedNotIngested) {
  std::string bytes = synthetic_capture(2);
  bytes.append(4, '\0');
  net::AdmissionDecisionMsg decision;
  decision.request_id = 1;
  const std::vector<std::uint8_t> frame = net::encode_frame(decision);
  bytes.append(reinterpret_cast<const char*>(frame.data()), frame.size());
  TempFile file("test_trace_fuzz_capture_decision.bin");
  const auto size = try_capture_stream(file, bytes, "decision skipped");
  ASSERT_TRUE(size.has_value());
  EXPECT_EQ(*size, 2U);  // decisions replayed past, not turned into VMs
}

TEST(CaptureFuzz, ReorderedRecordsStillStreamInArrivalOrder) {
  // Swap the two request records wholesale: structurally valid, and the
  // stream must still emit arrivals in (start, id) order.
  const std::string header = capture_header();
  const std::string full = synthetic_capture(2);
  const std::string records = full.substr(header.size());
  const std::size_t record_size = records.size() / 2;
  const std::string swapped = header + records.substr(record_size) +
                              records.substr(0, record_size);
  TempFile file("test_trace_fuzz_capture_reorder.bin");
  const auto size = try_capture_stream(file, swapped, "reordered");
  ASSERT_TRUE(size.has_value());
  EXPECT_EQ(*size, 2U);
}
