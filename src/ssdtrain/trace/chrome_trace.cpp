#include "ssdtrain/trace/chrome_trace.hpp"

#include <fstream>
#include <sstream>
#include <stdexcept>

namespace ssdtrain::trace {

void ChromeTrace::attach_stream(sim::Stream& stream, std::string track) {
  // Attach before enqueuing work: streams only materialise task labels
  // while an observer is installed (lazy-label contract), so tasks queued
  // earlier would trace with empty names.
  stream.set_observer(
      [this, track](const sim::Stream::TaskRecord& record) {
        add_event(TraceEvent{record.label, track, record.start, record.end});
      });
}

void ChromeTrace::add_event(TraceEvent event) {
  events_.push_back(std::move(event));
}

std::string ChromeTrace::to_json() const {
  // Track ids in order of first appearance.
  std::vector<std::string> tracks;
  auto track_id = [&tracks](const std::string& track) {
    for (std::size_t i = 0; i < tracks.size(); ++i) {
      if (tracks[i] == track) return i;
    }
    tracks.push_back(track);
    return tracks.size() - 1;
  };

  std::ostringstream out;
  out << "[\n";
  bool first = true;
  for (const auto& e : events_) {
    if (!first) out << ",\n";
    first = false;
    const std::size_t tid = track_id(e.track);
    out << R"(  {"name": ")" << e.name << R"(", "ph": "X", "pid": 0, )"
        << R"("tid": )" << tid << R"(, "ts": )" << e.start * 1e6
        << R"(, "dur": )" << (e.end - e.start) * 1e6 << "}";
  }
  // Thread-name metadata so tracks render with human-readable labels.
  for (std::size_t i = 0; i < tracks.size(); ++i) {
    if (!first) out << ",\n";
    first = false;
    out << R"(  {"name": "thread_name", "ph": "M", "pid": 0, "tid": )" << i
        << R"(, "args": {"name": ")" << tracks[i] << R"("}})";
  }
  out << "\n]\n";
  return out.str();
}

void ChromeTrace::write(const std::string& path) const {
  std::ofstream file(path);
  if (!file) throw std::runtime_error("cannot open trace file: " + path);
  file << to_json();
}

}  // namespace ssdtrain::trace
