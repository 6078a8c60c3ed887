#include "net/capture.hpp"

#include <deque>
#include <exception>
#include <map>
#include <optional>

namespace deflate::net {

CaptureWriter::CaptureWriter(const std::string& path,
                             const ServiceConfig& config)
    : out_(path, std::ios::binary | std::ios::trunc) {
  if (!out_.is_open()) return;
  const std::vector<std::uint8_t> header =
      encode_frame(Message{CaptureHeader{config}});
  out_.write(reinterpret_cast<const char*>(header.data()),
             static_cast<std::streamsize>(header.size()));
}

void CaptureWriter::record(std::uint32_t conn_id,
                           const std::vector<std::uint8_t>& frame) {
  char id[4];
  for (int i = 0; i < 4; ++i) {
    id[i] = static_cast<char>((conn_id >> (8 * i)) & 0xFF);
  }
  out_.write(id, sizeof(id));
  out_.write(reinterpret_cast<const char*>(frame.data()),
             static_cast<std::streamsize>(frame.size()));
}

namespace {

/// Reads one self-delimiting frame — the fixed header, then the payload
/// its length field announces — and decodes it. Returns what went wrong,
/// or an empty string.
std::string read_frame(std::istream& in, std::vector<std::uint8_t>& frame,
                       Message& message) {
  frame.resize(kHeaderSize);
  in.read(reinterpret_cast<char*>(frame.data()), kHeaderSize);
  if (in.gcount() != static_cast<std::streamsize>(kHeaderSize)) {
    return "truncated frame header";
  }
  // The header is checked before its length sizes the buffer: a corrupt
  // length field must not make the reader allocate without bound.
  std::string problem;
  const std::optional<std::uint32_t> len =
      payload_length(frame.data(), problem);
  if (!len) return "corrupt frame: " + problem;
  frame.resize(kHeaderSize + *len);
  in.read(reinterpret_cast<char*>(frame.data() + kHeaderSize), *len);
  if (in.gcount() != static_cast<std::streamsize>(*len)) {
    return "truncated frame payload";
  }
  DecodeResult decoded = decode_frame(frame.data(), frame.size());
  if (decoded.status != DecodeStatus::Ok) {
    return "corrupt frame: " + decoded.error;
  }
  message = std::move(decoded.message);
  return {};
}

}  // namespace

CaptureReader::CaptureReader(const std::string& path)
    : in_(path, std::ios::binary) {
  if (!in_.is_open()) {
    error_ = "cannot open";
    return;
  }
  std::vector<std::uint8_t> frame;
  Message message;
  if (std::string problem = read_frame(in_, frame, message);
      !problem.empty()) {
    error_ = "header: " + problem;
    return;
  }
  auto* header = std::get_if<CaptureHeader>(&message);
  if (header == nullptr) {
    error_ = std::string("header: expected a capture_header frame, got ") +
             msg_type_name(message_type(message));
    return;
  }
  config_ = std::move(header->config);
}

bool CaptureReader::next(CaptureRecord& record) {
  if (!error_.empty()) return false;
  const auto fail = [this](const std::string& problem) {
    error_ = "record " + std::to_string(records_) + ": " + problem;
    return false;
  };
  std::uint8_t id[4];
  in_.read(reinterpret_cast<char*>(id), sizeof(id));
  if (in_.gcount() == 0) return false;  // clean end of file between records
  if (in_.gcount() != sizeof(id)) return fail("truncated record header");
  record.index = records_;
  record.conn_id = 0;
  for (int i = 0; i < 4; ++i) {
    record.conn_id |= static_cast<std::uint32_t>(id[i]) << (8 * i);
  }
  if (std::string problem = read_frame(in_, record.frame, record.message);
      !problem.empty()) {
    return fail(problem);
  }
  ++records_;
  return true;
}

namespace {

ReplayReport failed(const std::string& path, const std::string& error) {
  ReplayReport report;
  report.error = "capture '" + path + "': " + error;
  return report;
}

}  // namespace

ReplayReport replay_capture(const std::string& path) {
  CaptureReader reader(path);
  if (!reader.error().empty()) return failed(path, reader.error());
  // The header may name a policy this process never registered; the core
  // rejects that by throwing, and replay reports it like any bad header.
  std::optional<ServiceCore> core;
  try {
    core.emplace(reader.config());
  } catch (const std::exception& error) {
    return failed(path, std::string("header: ") + error.what());
  }

  // One session per captured connection id, served like the live one.
  std::map<std::uint32_t, Session> sessions;
  // Regenerated decisions not yet matched against a captured record, in
  // emission order: (conn id, frame bytes).
  std::deque<std::pair<std::uint32_t, std::vector<std::uint8_t>>> expected;
  ReplayReport report;

  const auto note_mismatch = [&](std::string detail) {
    ++report.mismatches;
    if (report.details.size() < 8) report.details.push_back(std::move(detail));
  };

  CaptureRecord record;
  while (reader.next(record)) {
    if (const auto* request =
            std::get_if<AdmissionRequestMsg>(&record.message)) {
      ++report.requests;
      Session& session =
          sessions.try_emplace(record.conn_id, *core).first->second;
      for (const AdmissionDecisionMsg& decision : session.serve(*request)) {
        expected.emplace_back(record.conn_id, encode_frame(Message{decision}));
      }
    } else if (std::holds_alternative<AdmissionDecisionMsg>(record.message)) {
      ++report.decisions;
      if (expected.empty()) {
        note_mismatch("record " + std::to_string(record.index) +
                      ": captured decision with none regenerated");
        continue;
      }
      const auto [expected_conn, expected_frame] = std::move(expected.front());
      expected.pop_front();
      if (expected_conn != record.conn_id || expected_frame != record.frame) {
        note_mismatch("record " + std::to_string(record.index) +
                      ": decision diverged (conn " +
                      std::to_string(record.conn_id) + ")");
      }
    } else {
      return failed(path,
                    "record " + std::to_string(record.index) + ": unexpected " +
                        msg_type_name(message_type(record.message)) +
                        " frame");
    }
  }
  if (!reader.error().empty()) return failed(path, reader.error());

  for (const auto& leftover : expected) {
    note_mismatch("regenerated decision for conn " +
                  std::to_string(leftover.first) + " never captured");
  }
  return report;
}

}  // namespace deflate::net
