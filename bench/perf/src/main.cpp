// ssdtrain_perf: host-speed benchmark of the simulator. One workload per
// process; see bench/perf/README.md for the workloads and metrics.
//
//   ssdtrain_perf --workload NAME [--seed N] [--seconds S] [--trace 0|1]
//                 [--trace-out PATH] [--smoke] [--json PATH]
//
// Prints every metric as `name value unit`, then one JSON object as the
// last line of stdout. --trace 0 reports the end-to-end metrics; --trace 1
// runs an untraced and a traced window, then the layer probes, and reports
// the per-layer metrics (and writes the spans to --trace-out). Exits 1 if
// any checked operation failed.

#include <sys/resource.h>

#include <charconv>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <new>
#include <string>
#include <string_view>
#include <vector>

#include "perf.hpp"

namespace {

thread_local std::uint64_t t_allocs = 0;

}  // namespace

std::uint64_t perf::thread_allocs() { return t_allocs; }

// Counting replacements: every heap allocation ticks its thread's counter.
// They pair malloc/free across the replaced global new/delete, which GCC's
// -Wmismatched-new-delete cannot see once call sites inline them.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
#endif
void* operator new(std::size_t size) {
  ++t_allocs;
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) {
  ++t_allocs;
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 15.0;
  bool trace = false;
  std::string trace_out;
  bool smoke = false;
  std::string json_out;
};

int usage(const char* error) {
  std::fprintf(stderr,
               "ssdtrain_perf: %s\nusage: ssdtrain_perf --workload NAME "
               "[--seed N] [--seconds S] [--trace 0|1] [--trace-out PATH] "
               "[--smoke] [--json PATH]\nworkloads:",
               error);
  for (const std::string_view name : perf::workload_names()) {
    std::fprintf(stderr, " %.*s", static_cast<int>(name.size()), name.data());
  }
  std::fprintf(stderr, "\n");
  return 2;
}

/// Parses argv into \p o; returns an error message, or null.
const char* parse(int argc, char** argv, Options& o) {
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg == "--smoke") {
      o.smoke = true;
      continue;
    }
    if (i + 1 >= argc) return "missing value after a flag";
    const std::string_view value = argv[++i];
    const char* end = value.data() + value.size();
    if (arg == "--workload") {
      o.workload = value;
    } else if (arg == "--seed") {
      if (std::from_chars(value.data(), end, o.seed).ptr != end) {
        return "--seed takes an unsigned integer";
      }
    } else if (arg == "--seconds") {
      if (std::from_chars(value.data(), end, o.seconds).ptr != end ||
          !(o.seconds > 0.0 && o.seconds <= 3600.0)) {
        return "--seconds takes a number in (0, 3600]";
      }
    } else if (arg == "--trace") {
      if (value != "0" && value != "1") return "--trace takes 0 or 1";
      o.trace = value == "1";
    } else if (arg == "--trace-out") {
      o.trace_out = value;
    } else if (arg == "--json") {
      o.json_out = value;
    } else {
      return "unknown flag";
    }
  }
  if (o.workload.empty()) return "--workload is required";
  return nullptr;
}

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

std::string format_number(double value) {
  char buf[64];
  const auto result = std::to_chars(buf, buf + sizeof(buf), value);
  return std::string(buf, result.ptr);
}

double peak_rss_mib() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

double sum(const std::vector<double>& values) {
  double total = 0.0;
  for (const double v : values) total += v;
  return total;
}

/// Steps of one unit of work over the median unit's wall time.
double step_rate(const perf::Window& w) {
  if (w.step_ms.empty()) return 0.0;
  return static_cast<double>(w.step_ms.front().size()) /
         perf::median(w.busy_s);
}

/// Each step position's median over the window's units. Units repeat the
/// same work, so a host hiccup that slows one repetition of a step does not
/// move its median; percentiles over these medians describe the steps, not
/// the host's noise.
std::vector<double> position_medians(const perf::Window& w) {
  std::vector<double> out;
  if (w.step_ms.empty()) return out;
  std::vector<double> reps;
  for (std::size_t k = 0; k < w.step_ms.front().size(); ++k) {
    reps.clear();
    for (const std::vector<double>& unit : w.step_ms) {
      if (k < unit.size()) reps.push_back(unit[k]);
    }
    out.push_back(perf::median(reps));
  }
  return out;
}

double per_step(double count, const perf::Counters& c) {
  return c.steps > 0 ? count / static_cast<double>(c.steps) : 0.0;
}

double ratio(std::uint64_t part, std::uint64_t whole) {
  return whole > 0 ? static_cast<double>(part) / static_cast<double>(whole)
                   : 0.0;
}

std::vector<Metric> end_to_end(const perf::Window& w) {
  const std::vector<double> steps = position_medians(w);
  return {
      {"steps_per_s", step_rate(w), "1/s"},
      {"step_ms_p50", perf::percentile(steps, 50.0), "ms"},
      {"step_ms_p95", perf::percentile(steps, 95.0), "ms"},
      {"sweep_s", perf::median(w.unit_s), "s"},
      {"setup_s", perf::median(w.setup_s), "s"},
      {"peak_rss_mb", peak_rss_mib(), "MiB"},
  };
}

std::vector<Metric> per_layer(const perf::Window& plain,
                              const perf::Window& traced,
                              const perf::ProbeCounts& probes, int workers,
                              const perf::Tracer& t) {
  const perf::Counters& c = traced.counters;
  const auto med = [&t](const char* span) {
    return perf::median(t.durations_ms(span));
  };
  const std::vector<double> points = t.durations_ms("sweep.point");
  return {
      {"hw.node_build_ms", med("hw.node_build"), "ms"},
      {"hw.ssd.busy_ms_per_step", med("hw.ssd.probe_step"), "ms"},
      {"hw.ssd.ns_per_page_write",
       probes.ssd_pages > 0 ? sum(t.durations_ms("hw.ssd.record_write")) *
                                  1e6 / static_cast<double>(probes.ssd_pages)
                            : 0.0,
       "ns"},
      {"hw.ssd.host_pages_per_step",
       per_step(static_cast<double>(c.host_pages), c), "count"},
      {"hw.ssd.media_pages_per_step",
       per_step(static_cast<double>(c.media_pages), c), "count"},
      {"hw.ssd.gc_runs", static_cast<double>(c.gc_runs), "count"},
      {"sim.events_per_step", per_step(static_cast<double>(c.events), c),
       "count"},
      {"sim.filling_passes_per_step",
       per_step(static_cast<double>(c.filling_passes), c), "count"},
      {"sim.flows_refilled_per_step",
       per_step(static_cast<double>(c.flows_refilled), c), "count"},
      {"sim.host_ns_per_event",
       sum(t.durations_ms("runtime.step")) * 1e6 /
           static_cast<double>(traced.events),
       "ns"},
      // 52 bits, so the JSON number holds the digest exactly.
      {"sim.digest", static_cast<double>(c.digest >> 12), "hash"},
      {"runtime.session_ctor_ms", med("runtime.session_ctor"), "ms"},
      {"runtime.record_step_ms", med("runtime.record_step"), "ms"},
      {"runtime.step_ms_growth", perf::median(traced.growth), "ratio"},
      {"runtime.heap_allocs_per_step",
       ratio(traced.heap_allocs, traced.replayed_steps), "count"},
      {"runtime.program_ops", static_cast<double>(probes.program_ops),
       "count"},
      {"runtime.program_bytes", static_cast<double>(probes.program_bytes),
       "bytes"},
      {"runtime.program_serialize_ms", med("runtime.program_serialize"),
       "ms"},
      {"runtime.program_deserialize_ms", med("runtime.program_deserialize"),
       "ms"},
      {"runtime.program_cache_hits", static_cast<double>(c.cache_hits),
       "count"},
      {"runtime.program_cache_misses", static_cast<double>(c.cache_misses),
       "count"},
      {"core.cache.packs_per_step", per_step(static_cast<double>(c.packs), c),
       "count"},
      {"core.cache.offload_started_per_step",
       per_step(static_cast<double>(c.offload_started), c), "count"},
      {"core.offloader.stores_per_step",
       per_step(static_cast<double>(c.stores), c), "count"},
      {"core.offloader.loads_per_step",
       per_step(static_cast<double>(c.loads), c), "count"},
      {"core.cache.forward_ratio", ratio(c.forwards, c.offload_started),
       "sim-ratio"},
      {"core.cache.wasted_store_ratio",
       ratio(c.wasted_stores, c.offload_started), "sim-ratio"},
      {"ckpt.commits", static_cast<double>(c.commits), "count"},
      {"ckpt.restores", static_cast<double>(c.restores), "count"},
      {"ckpt.rollback_steps", static_cast<double>(c.rollback_steps), "count"},
      {"ckpt.commit_ms", med("ckpt.commit"), "ms"},
      {"ckpt.restore_ms", med("ckpt.restore"), "ms"},
      {"ckpt.manifest_serialize_us", med("ckpt.manifest_serialize") * 1e3,
       "us"},
      {"ckpt.manifest_deserialize_us", med("ckpt.manifest_deserialize") * 1e3,
       "us"},
      {"ckpt.goodput", c.goodput, "sim-ratio"},
      {"sweep.point_ms_p50", perf::median(points), "ms"},
      {"sweep.point_ms_max", perf::percentile(points, 100.0), "ms"},
      {"sweep.worker_efficiency",
       sum(points) / (workers * sum(t.durations_ms("sweep.grid"))), "ratio"},
      {"trace.overhead", step_rate(traced) / step_rate(plain), "ratio"},
  };
}

std::string result_json(const perf::Status& status,
                        const std::vector<Metric>& metrics) {
  std::string out = "{\"correct\": ";
  out += status.failed == 0 ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(status.attempted);
  out += ", \"failed\": " + std::to_string(status.failed);
  out += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) out += ", ";
    out += "\"" + metrics[i].name + "\": {\"value\": " +
           format_number(metrics[i].value) + ", \"unit\": \"" +
           metrics[i].unit + "\"}";
  }
  out += "}}";
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  Options o;
  if (const char* error = parse(argc, argv, o)) return usage(error);
  std::unique_ptr<perf::Workload> workload =
      perf::make_workload(o.workload, o.seed, o.smoke);
  if (workload == nullptr) return usage("unknown workload");

  std::printf("workload %s seed %llu: %s\n", o.workload.c_str(),
              static_cast<unsigned long long>(o.seed),
              workload->inputs().c_str());
  perf::Status status;
  // Sized for the longest traced window; spans past it are dropped.
  perf::Tracer tracer(o.trace ? std::size_t{1} << 19 : 0);
  workload->prepare(status);

  // --smoke runs one unit of work per window, for CTest and the sanitizers.
  const double budget = o.smoke ? 0.0 : o.seconds;
  std::vector<Metric> metrics;
  if (!o.trace) {
    // At least three points (or grids), so set-up time is a median.
    const perf::Window w =
        workload->run_window(budget, o.smoke ? 1 : 3, tracer, status);
    metrics = end_to_end(w);
  } else {
    const perf::Window plain =
        workload->run_window(budget / 2.0, 1, tracer, status);
    tracer.set_enabled(true);
    const perf::Window traced =
        workload->run_window(budget / 2.0, 1, tracer, status);
    const perf::ProbeCounts probes =
        perf::run_probes(*workload, traced.counters, o.smoke, tracer, status);
    tracer.set_enabled(false);
    metrics = per_layer(plain, traced, probes, workload->workers(), tracer);

    for (const perf::Tracer::NameTotals& t : tracer.totals()) {
      std::printf("span %s count %llu total_ms %.3f self_ms %.3f\n",
                  t.name.c_str(), static_cast<unsigned long long>(t.count),
                  t.total_ms, t.self_ms);
    }
    if (tracer.dropped() > 0) {
      std::printf("span buffer full: %llu spans dropped\n",
                  static_cast<unsigned long long>(tracer.dropped()));
    }
    if (!o.trace_out.empty()) {
      int id = 0;
      for (const std::string_view name : perf::workload_names()) {
        if (name == o.workload) break;
        ++id;
      }
      if (!tracer.write_chrome_trace(o.trace_out, o.workload, id)) {
        status.fail("cannot write " + o.trace_out);
      }
    }
  }

  for (Metric& metric : metrics) {
    if (!std::isfinite(metric.value)) {
      status.fail(metric.name + " is not a finite number");
      metric.value = 0.0;
    }
    std::printf("%s %s %s\n", metric.name.c_str(),
                format_number(metric.value).c_str(), metric.unit.c_str());
  }
  if (!o.json_out.empty()) {
    std::ofstream out(o.json_out);
    out << result_json(status, metrics) << "\n";
    if (!out) status.fail("cannot write " + o.json_out);
  }
  std::printf("%s\n", result_json(status, metrics).c_str());
  return status.failed == 0 ? 0 : 1;
}
