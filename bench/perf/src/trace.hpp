#pragma once

/// \file trace.hpp
/// Host-time spans around the benchmark's own calls into the library. Spans
/// go into a buffer sized once at start-up and are written out once, when
/// the run ends, as Chrome-trace JSON; opening and closing a span never
/// allocates, so a traced window still sees the zero-allocation replay path.
/// A disabled tracer costs one relaxed load per span.

#include <atomic>
#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace perf {

class Tracer {
 public:
  static constexpr std::uint32_t kNoSpan = 0;

  /// \p capacity spans fit; later spans are counted in dropped().
  explicit Tracer(std::size_t capacity);
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  /// Toggle only while no span is open on another thread.
  void set_enabled(bool enabled) {
    enabled_.store(enabled, std::memory_order_relaxed);
  }

  /// Opens on construction and closes on destruction. The parent is the
  /// innermost span open on this thread, unless given explicitly: a sweep
  /// point running on a worker thread names the grid span that queued it.
  class Span {
   public:
    Span(Tracer& tracer, const char* name);
    Span(Tracer& tracer, const char* name, std::uint32_t parent);
    ~Span();
    Span(const Span&) = delete;
    Span& operator=(const Span&) = delete;

    /// kNoSpan when tracing is off or the buffer is full.
    [[nodiscard]] std::uint32_t id() const { return id_; }

   private:
    Tracer* tracer_ = nullptr;
    std::uint32_t id_ = kNoSpan;
    std::uint32_t saved_current_ = kNoSpan;
  };

  /// Per span name: how many, total and self milliseconds. Self time is a
  /// span's duration minus the union of its children's intervals.
  struct NameTotals {
    std::string name;
    std::uint64_t count = 0;
    double total_ms = 0.0;
    double self_ms = 0.0;
  };

  [[nodiscard]] std::uint64_t dropped() const {
    return dropped_.load(std::memory_order_relaxed);
  }

  /// Durations in milliseconds of every span named \p name.
  [[nodiscard]] std::vector<double> durations_ms(std::string_view name) const;

  /// Totals per span name, sorted by self time, largest first.
  [[nodiscard]] std::vector<NameTotals> totals() const;

  /// Writes the spans as Chrome-trace JSON ("X" events; args carry the
  /// span id, the parent id, the self time and the workload). Returns false
  /// when the file cannot be written.
  bool write_chrome_trace(const std::string& path, std::string_view workload,
                          int workload_id) const;

 private:
  struct Record {
    const char* name = nullptr;
    std::uint32_t id = kNoSpan;
    std::uint32_t parent = kNoSpan;
    std::uint32_t thread = 0;
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
  };

  /// Every recorded span, in the order they were opened. Call only once
  /// all spans are closed.
  [[nodiscard]] std::span<const Record> records() const;
  /// Self time of every record, index-aligned with records().
  [[nodiscard]] std::vector<double> self_ms() const;

  std::vector<Record> records_;
  std::atomic<std::uint32_t> next_{0};
  std::atomic<std::uint64_t> dropped_{0};
  std::atomic<bool> enabled_{false};
};

}  // namespace perf
