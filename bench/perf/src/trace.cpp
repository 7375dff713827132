#include "trace.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <map>
#include <utility>

namespace perf {
namespace {

thread_local std::uint32_t t_current = Tracer::kNoSpan;
std::atomic<std::uint32_t> g_next_thread{0};

std::uint32_t thread_index() {
  thread_local const std::uint32_t index =
      g_next_thread.fetch_add(1, std::memory_order_relaxed);
  return index;
}

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

Tracer::Tracer(std::size_t capacity) : records_(capacity) {}

Tracer::Span::Span(Tracer& tracer, const char* name)
    : Span(tracer, name, t_current) {}

Tracer::Span::Span(Tracer& tracer, const char* name, std::uint32_t parent) {
  if (!tracer.enabled_.load(std::memory_order_relaxed)) return;
  const std::uint32_t index =
      tracer.next_.fetch_add(1, std::memory_order_relaxed);
  if (index >= tracer.records_.size()) {
    tracer.dropped_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  Record& record = tracer.records_[index];
  record.name = name;
  record.id = index + 1;
  record.parent = parent;
  record.thread = thread_index();
  tracer_ = &tracer;
  id_ = record.id;
  saved_current_ = t_current;
  t_current = id_;
  record.start_ns = now_ns();
}

Tracer::Span::~Span() {
  if (tracer_ == nullptr) return;
  tracer_->records_[id_ - 1].end_ns = now_ns();
  t_current = saved_current_;
}

std::span<const Tracer::Record> Tracer::records() const {
  const std::size_t opened = next_.load(std::memory_order_relaxed);
  return {records_.data(), std::min(opened, records_.size())};
}

std::vector<double> Tracer::durations_ms(std::string_view name) const {
  std::vector<double> out;
  for (const Record& r : records()) {
    if (name == r.name) {
      out.push_back(static_cast<double>(r.end_ns - r.start_ns) / 1e6);
    }
  }
  return out;
}

std::vector<double> Tracer::self_ms() const {
  const std::span<const Record> recs = records();
  std::vector<std::vector<std::uint32_t>> children(recs.size());
  for (std::uint32_t i = 0; i < recs.size(); ++i) {
    const std::uint32_t parent = recs[i].parent;
    if (parent != kNoSpan && parent <= recs.size()) {
      children[parent - 1].push_back(i);
    }
  }
  std::vector<double> self(recs.size());
  std::vector<std::pair<std::int64_t, std::int64_t>> cover;
  for (std::size_t i = 0; i < recs.size(); ++i) {
    const Record& r = recs[i];
    // Children on other threads may overlap each other, so subtract the
    // union of their intervals, clipped to this span.
    cover.clear();
    for (const std::uint32_t c : children[i]) {
      const std::int64_t begin = std::max(recs[c].start_ns, r.start_ns);
      const std::int64_t end = std::min(recs[c].end_ns, r.end_ns);
      if (end > begin) cover.emplace_back(begin, end);
    }
    std::sort(cover.begin(), cover.end());
    std::int64_t covered = 0;
    std::int64_t reach = r.start_ns;
    for (const auto& [begin, end] : cover) {
      const std::int64_t from = std::max(begin, reach);
      if (end > from) covered += end - from;
      reach = std::max(reach, end);
    }
    self[i] = static_cast<double>(r.end_ns - r.start_ns - covered) / 1e6;
  }
  return self;
}

std::vector<Tracer::NameTotals> Tracer::totals() const {
  const std::span<const Record> recs = records();
  const std::vector<double> self = self_ms();
  std::map<std::string_view, NameTotals> by_name;
  for (std::size_t i = 0; i < recs.size(); ++i) {
    NameTotals& t = by_name[recs[i].name];
    t.name = recs[i].name;
    ++t.count;
    t.total_ms += static_cast<double>(recs[i].end_ns - recs[i].start_ns) / 1e6;
    t.self_ms += self[i];
  }
  std::vector<NameTotals> out;
  for (auto& [name, t] : by_name) out.push_back(std::move(t));
  std::sort(out.begin(), out.end(),
            [](const NameTotals& a, const NameTotals& b) {
              return a.self_ms > b.self_ms;
            });
  return out;
}

bool Tracer::write_chrome_trace(const std::string& path,
                                std::string_view workload,
                                int workload_id) const {
  std::ofstream out(path);
  if (!out) return false;
  const std::span<const Record> recs = records();
  const std::vector<double> self = self_ms();
  std::int64_t origin = 0;
  for (std::size_t i = 0; i < recs.size(); ++i) {
    if (i == 0 || recs[i].start_ns < origin) origin = recs[i].start_ns;
  }
  out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  char buf[512];
  for (std::size_t i = 0; i < recs.size(); ++i) {
    const Record& r = recs[i];
    std::snprintf(
        buf, sizeof(buf),
        "%s\n{\"name\":\"%s\",\"cat\":\"perf\",\"ph\":\"X\",\"pid\":1,"
        "\"tid\":%u,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"span\":%u,"
        "\"parent\":%u,\"self_us\":%.3f,\"workload\":\"%.*s\","
        "\"workload_id\":%d}}",
        i == 0 ? "" : ",", r.name, r.thread,
        static_cast<double>(r.start_ns - origin) / 1e3,
        static_cast<double>(r.end_ns - r.start_ns) / 1e3, r.id, r.parent,
        self[i] * 1e3, static_cast<int>(workload.size()), workload.data(),
        workload_id);
    out << buf;
  }
  out << "\n]}\n";
  return static_cast<bool>(out);
}

}  // namespace perf
