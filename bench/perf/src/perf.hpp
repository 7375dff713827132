#pragma once

/// \file perf.hpp
/// Shared pieces of the host-speed benchmark: the workload interface, what a
/// timed window measures, the deterministic step digest, and the layer
/// probes. See bench/perf/README.md for the metric definitions.

#include <bit>
#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "ssdtrain/ckpt/manifest.hpp"
#include "ssdtrain/hw/node.hpp"
#include "ssdtrain/runtime/step_program.hpp"
#include "ssdtrain/runtime/step_stats.hpp"
#include "trace.hpp"

namespace perf {

/// Heap allocations made by the calling thread so far, counted by the
/// operator new replacement in main.cpp.
std::uint64_t thread_allocs();

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double>(to - from).count();
}

/// FNV-1a over 64-bit words (doubles by bit pattern), so two runs agree on
/// a digest only if every simulated result agrees bit for bit.
class Digest {
 public:
  void add(std::uint64_t word) {
    for (int byte = 0; byte < 8; ++byte) {
      hash_ ^= (word >> (8 * byte)) & 0xffu;
      hash_ *= 0x100000001b3ull;
    }
  }
  void add(double value) { add(std::bit_cast<std::uint64_t>(value)); }
  [[nodiscard]] std::uint64_t value() const { return hash_; }

 private:
  std::uint64_t hash_ = 0xcbf29ce484222325ull;
};

/// Adds every field of \p stats, the cache and offloader snapshots included.
void add_step_stats(Digest& digest, const ssdtrain::runtime::StepStats& stats);

/// Linear-interpolation percentile, \p p in [0, 100]; 0 for no samples.
double percentile(std::vector<double> values, double p);
inline double median(std::vector<double> values) {
  return percentile(std::move(values), 50.0);
}

/// Simulated work of one unit of work (one session's timed steps, or one
/// whole grid). Identical on every run with the same seed.
struct Counters {
  std::uint64_t steps = 0;
  std::uint64_t events = 0;
  std::uint64_t filling_passes = 0;
  std::uint64_t flows_refilled = 0;
  std::int64_t host_pages = 0;   ///< FTL host page programs, all drives
  std::int64_t media_pages = 0;  ///< FTL media page programs, all drives
  std::int64_t gc_runs = 0;
  std::uint64_t packs = 0;
  std::uint64_t offload_started = 0;
  std::uint64_t forwards = 0;
  std::uint64_t wasted_stores = 0;
  std::uint64_t stores = 0;
  std::uint64_t loads = 0;
  std::uint64_t bytes_stored = 0;
  std::uint64_t commits = 0;
  std::uint64_t restores = 0;
  std::uint64_t rollback_steps = 0;
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_misses = 0;
  double goodput = 0.0;
  std::uint64_t digest = 0;  ///< every timed step's StepStats and events
};

/// What one timed window measured (host times unless noted). A "step" of
/// the end-to-end metrics is a replayed training step, except in a sweep,
/// whose unit of work is a grid point.
struct Window {
  /// Per unit of work, its timed steps in order (sweep: per grid, its
  /// points in grid order). Units repeat the same inputs, so entry k of
  /// every unit is the same simulated work.
  std::vector<std::vector<double>> step_ms;
  /// Per unit of work, the wall time of its timed steps (sweep: the grid).
  std::vector<double> busy_s;
  std::vector<double> setup_s;  ///< per point: construction + recording step
  std::vector<double> unit_s;   ///< per unit of work: a point, or a grid
  std::vector<double> growth;   ///< per point: late / early median step ms
  std::uint64_t replayed_steps = 0;  ///< timed replayed training steps
  std::uint64_t events = 0;       ///< simulator events in those steps
  std::uint64_t heap_allocs = 0;  ///< heap allocations in those steps
  Counters counters;              ///< of the window's first unit of work
};

/// Inputs of the standalone layer probes, taken from the workload's config.
struct ProbeInputs {
  ssdtrain::hw::NodeConfig node;
  int gpu = 0;  ///< the GPU whose SSD array the probes drive
  std::vector<ssdtrain::ckpt::CheckpointManifest::Shard> shards;
};

/// Checked operations: steps run, gate comparisons, probe round trips.
struct Status {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  /// Counts one failure and reports it on stderr.
  void fail(const std::string& what);
};

class Workload {
 public:
  virtual ~Workload() = default;

  /// Runs the correctness gate's reference: the same inputs with
  /// use_replay = false. The first measured unit is compared against it
  /// step by step, and every later unit against the first.
  virtual void prepare(Status& status) = 0;

  /// Runs units of work until \p budget_s has passed, at least
  /// \p min_units of them.
  virtual Window run_window(double budget_s, int min_units, Tracer& tracer,
                            Status& status) = 0;

  [[nodiscard]] virtual ProbeInputs probe_inputs() const = 0;

  /// The inputs the seed chose, in a line for the log.
  [[nodiscard]] virtual std::string inputs() const = 0;

  /// Calls \p fn with the workload's recorded programs: a fresh session's,
  /// or the last grid's program cache.
  virtual void with_programs(
      const std::function<
          void(std::span<const ssdtrain::runtime::StepProgram* const>)>& fn,
      Status& status) = 0;

  /// OS threads running units of work.
  [[nodiscard]] virtual int workers() const { return 1; }
};

/// The workloads, in BENCHMARK.json order.
std::span<const std::string_view> workload_names();

/// Null for an unknown name.
std::unique_ptr<Workload> make_workload(std::string_view name,
                                        std::uint64_t seed, bool smoke);

/// What the probes measure beyond their spans' durations.
struct ProbeCounts {
  std::int64_t ssd_pages = 0;  ///< host pages the SSD probe wrote
  std::uint64_t program_ops = 0;
  std::uint64_t program_bytes = 0;
};

/// Standalone calls into each layer, sized from the workload's inputs and
/// its measured \p counters, each wrapped in a span (probes.cpp).
ProbeCounts run_probes(Workload& workload, const Counters& counters,
                       bool smoke, Tracer& tracer, Status& status);

}  // namespace perf
