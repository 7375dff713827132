#pragma once

/// \file chrome_trace.hpp
/// Chrome-trace (about://tracing / Perfetto) JSON export of the simulated
/// timeline: compute kernels per GPU stream plus offload/prefetch I/O jobs.
/// This renders the paper's Fig. 2 for any run — the visual proof that the
/// stores and prefetches hide behind forward/backward compute.

#include <string>
#include <vector>

#include "ssdtrain/sim/stream.hpp"
#include "ssdtrain/util/units.hpp"

namespace ssdtrain::trace {

struct TraceEvent {
  std::string name;
  std::string track;  ///< rendered as the thread name
  util::Seconds start = 0.0;
  util::Seconds end = 0.0;
};

class ChromeTrace {
 public:
  /// Subscribes to a stream; every completed task becomes an event on a
  /// track named \p track.
  void attach_stream(sim::Stream& stream, std::string track);

  /// Adds an event directly (e.g. bandwidth flows, pool jobs, the fault
  /// log through fault::append_fault_events).
  void add_event(TraceEvent event);

  [[nodiscard]] const std::vector<TraceEvent>& events() const {
    return events_;
  }

  /// Serialises to the Chrome trace-event JSON array format.
  [[nodiscard]] std::string to_json() const;

  /// Writes to a file; throws std::runtime_error on I/O failure.
  void write(const std::string& path) const;

 private:
  std::vector<TraceEvent> events_;
};

}  // namespace ssdtrain::trace
