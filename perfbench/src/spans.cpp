#include "spans.hpp"

#include <fstream>
#include <stdexcept>

namespace perfbench {

SpanRecorder::SpanRecorder() : origin_(std::chrono::steady_clock::now()) {}

SpanRecorder::NameId SpanRecorder::intern(const std::string& name) {
  for (NameId id = 0; id < names_.size(); ++id) {
    if (names_[id] == name) return id;
  }
  names_.push_back(name);
  return static_cast<NameId>(names_.size() - 1);
}

std::int64_t SpanRecorder::now_ns() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - origin_)
      .count();
}

std::size_t SpanRecorder::open(NameId name) {
  if (spans_.size() >= kNoParent) {
    throw std::length_error("span recorder: too many spans");
  }
  Span span;
  span.name = name;
  span.parent = open_.empty() ? kNoParent : open_.back();
  const std::size_t index = spans_.size();
  open_.push_back(static_cast<std::uint32_t>(index));
  span.start_ns = now_ns();
  spans_.push_back(span);
  return index;
}

void SpanRecorder::close(std::size_t index) {
  spans_[index].end_ns = now_ns();
  if (!open_.empty() && open_.back() == index) open_.pop_back();
}

std::map<std::string, SpanRecorder::NameStats> SpanRecorder::stats() const {
  std::vector<std::int64_t> child_ns(spans_.size(), 0);
  for (const Span& span : spans_) {
    if (span.parent != kNoParent) {
      child_ns[span.parent] += span.end_ns - span.start_ns;
    }
  }
  std::map<std::string, NameStats> out;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    const std::int64_t duration = span.end_ns - span.start_ns;
    NameStats& stats = out[names_[span.name]];
    ++stats.calls;
    stats.total_ns += duration;
    stats.self_ns += duration - child_ns[i];
    stats.durations_ns.push_back(static_cast<double>(duration));
  }
  return out;
}

bool SpanRecorder::write_csv(const std::string& path,
                             const std::vector<std::string>& header) const {
  std::ofstream out(path);
  if (!out) return false;
  for (const std::string& line : header) out << "# " << line << '\n';
  out << "name,start_ns,end_ns,parent\n";
  for (const Span& span : spans_) {
    out << names_[span.name] << ',' << span.start_ns << ',' << span.end_ns
        << ',';
    if (span.parent == kNoParent) {
      out << -1;
    } else {
      out << span.parent;
    }
    out << '\n';
  }
  out.flush();
  return static_cast<bool>(out);
}

}  // namespace perfbench
