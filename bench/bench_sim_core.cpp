// Event-core microbenchmark: raw discrete-event throughput on the three
// topologies that dominate the figure benches' simulator time, plus heap
// allocations per event (counted via an operator-new override in this
// binary).
//
//   ping_pong    — self-rescheduling event chains with a 40-byte closure
//                  payload: the pure Simulator hot path. Allocation-bound
//                  on the pre-refactor core (std::function heap + a copy
//                  per priority_queue pop); zero-allocation at steady
//                  state on the inline UniqueFunction + move-pop heap.
//   fan_out      — rounds of N completions combined by when_all, fired by
//                  scheduled events: the pooled-completion / intrusive
//                  waiter path.
//   stream_chain — a single stream executing a long chain of tasks, each
//                  explicitly dependent on its predecessor: the
//                  single-dep fast path (no when_all combiner, pooled
//                  task completions, FinishToken instead of a closure).
//
// Events-executed counts are deterministic and golden-tracked
// (bench/golden/sim_core.csv); events/sec is printed for CI-log trend
// visibility. Run with `smoke` for the sanitizer-friendly small sizes.

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <iostream>
#include <new>
#include <string>
#include <vector>

#include "ssdtrain/sim/completion.hpp"
#include "ssdtrain/sim/simulator.hpp"
#include "ssdtrain/sim/stream.hpp"
#include "ssdtrain/sweep/cli.hpp"
#include "ssdtrain/util/check.hpp"
#include "ssdtrain/util/csv.hpp"
#include "ssdtrain/util/table.hpp"
#include "ssdtrain/util/units.hpp"

namespace {

std::atomic<std::uint64_t> g_allocs{0};

}  // namespace

// Counting overrides: every heap allocation in this binary ticks g_allocs.
// They pair malloc/free across the replaced global new/delete, which
// GCC's -Wmismatched-new-delete cannot see once call sites inline them.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
#endif
void* operator new(std::size_t size) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace {

namespace sim = ssdtrain::sim;
namespace sweep = ssdtrain::sweep;
namespace u = ssdtrain::util;

struct Result {
  std::string topology;
  std::uint64_t events = 0;   ///< deterministic; golden-tracked
  double seconds = 0.0;       ///< wall clock of the timed section
  std::uint64_t allocs = 0;   ///< heap allocations in the timed section
};

/// 40 bytes of captured state, the size of a typical hardware-model
/// closure (this + a handful of ids/byte counts). Keeps the comparison
/// honest: the pre-refactor std::function heap-allocated this capture on
/// every scheduled event.
struct Payload {
  std::uint64_t values[5];
};

void hop(sim::Simulator& s, Payload payload, std::uint64_t remaining) {
  if (remaining == 0) return;
  payload.values[0] ^= remaining;
  s.schedule_after(1e-6, [&s, payload, remaining] {
    hop(s, payload, remaining - 1);
  });
}

Result run_ping_pong(std::uint64_t total_hops, std::uint64_t chains) {
  sim::Simulator s;
  const Payload payload{{1, 2, 3, 4, 5}};
  const std::uint64_t per_chain = total_hops / chains;
  // Warmup establishes the heap's capacity high-water mark so the timed
  // section measures steady state.
  for (std::uint64_t c = 0; c < chains; ++c) hop(s, payload, 64);
  s.run();

  const std::uint64_t before_events = s.events_executed();
  const std::uint64_t before_allocs =
      g_allocs.load(std::memory_order_relaxed);
  const auto start = std::chrono::steady_clock::now();
  for (std::uint64_t c = 0; c < chains; ++c) hop(s, payload, per_chain);
  s.run();
  const auto stop = std::chrono::steady_clock::now();

  Result r;
  r.topology = "ping_pong";
  r.events = s.events_executed() - before_events;
  r.seconds = std::chrono::duration<double>(stop - start).count();
  r.allocs = g_allocs.load(std::memory_order_relaxed) - before_allocs;
  return r;
}

Result run_fan_out(std::uint64_t rounds, std::uint64_t width) {
  sim::Simulator s;
  std::uint64_t fired = 0;
  std::vector<sim::CompletionPtr> deps(width);

  const auto round = [&](std::uint64_t index) {
    for (std::uint64_t i = 0; i < width; ++i) {
      deps[i] = sim::Completion::create(s);
    }
    auto all = sim::when_all(s, deps);
    all->add_waiter([&fired] { ++fired; });
    for (std::uint64_t i = 0; i < width; ++i) {
      s.schedule_after(static_cast<double>(index) * 1e-6,
                       [dep = deps[i]] { dep->fire(); });
    }
    s.run();
  };

  for (std::uint64_t w = 0; w < rounds / 10 + 1; ++w) round(w);  // warmup

  const std::uint64_t before_events = s.events_executed();
  const std::uint64_t before_allocs =
      g_allocs.load(std::memory_order_relaxed);
  const auto start = std::chrono::steady_clock::now();
  for (std::uint64_t i = 0; i < rounds; ++i) round(i);
  const auto stop = std::chrono::steady_clock::now();

  u::check(fired == rounds + rounds / 10 + 1, "fan_out lost a when_all");
  Result r;
  r.topology = "fan_out";
  r.events = s.events_executed() - before_events;
  r.seconds = std::chrono::duration<double>(stop - start).count();
  r.allocs = g_allocs.load(std::memory_order_relaxed) - before_allocs;
  return r;
}

Result run_stream_chain(std::uint64_t tasks) {
  sim::Simulator s;
  sim::Stream stream(s, "chain");

  // Bounded launch-ahead, exactly how runtime::Executor drives the
  // compute stream (ExecutorOptions::max_launch_ahead): the queue depth
  // stays ~12, so this measures per-task cost, not deque thrash from an
  // unbounded backlog no real workload produces.
  const auto chain = [&](std::uint64_t n) {
    sim::CompletionPtr prev = stream.enqueue("k", 1e-6);
    for (std::uint64_t i = 1; i < n; ++i) {
      prev = stream.enqueue_after("k", 1e-6, std::move(prev));
      while (stream.queued() > 12 && s.step()) {
      }
    }
    s.run();
    u::check(prev->done(), "stream chain did not drain");
  };

  chain(tasks / 10 + 1);  // warmup

  const std::uint64_t before_events = s.events_executed();
  const std::uint64_t before_allocs =
      g_allocs.load(std::memory_order_relaxed);
  const auto start = std::chrono::steady_clock::now();
  chain(tasks);
  const auto stop = std::chrono::steady_clock::now();

  Result r;
  r.topology = "stream_chain";
  r.events = s.events_executed() - before_events;
  r.seconds = std::chrono::duration<double>(stop - start).count();
  r.allocs = g_allocs.load(std::memory_order_relaxed) - before_allocs;
  return r;
}

std::string format_rate(double events_per_sec) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.1fM/s", events_per_sec / 1e6);
  return buf;
}

std::string format_allocs_per_event(const Result& r) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.4f",
                r.events > 0
                    ? static_cast<double>(r.allocs) /
                          static_cast<double>(r.events)
                    : 0.0);
  return buf;
}

}  // namespace

int main(int argc, char** argv) {
  const auto options = sweep::parse_cli(argc, argv);
  sweep::reject_flags_except(options, {"--csv"},
                             "this microbench applies only --csv");
  sweep::reject_positionals(options, {"smoke"});
  const bool smoke =
      !options.positional.empty() && options.positional[0] == "smoke";
  // Smoke sizes keep the ASan/TSan legs quick; the full sizes give stable
  // events/sec numbers in the Release CI log.
  const std::uint64_t scale = smoke ? 20 : 1;

  std::cout << "=== Event-core throughput (ping-pong / fan-out / "
               "stream-chain) ===\n\n";

  std::vector<Result> results;
  results.push_back(run_ping_pong(2'000'000 / scale, 64));
  results.push_back(run_fan_out(100'000 / scale, 8));
  results.push_back(run_stream_chain(200'000 / scale));

  u::AsciiTable table(
      {"topology", "events", "events/sec", "allocs/event (steady)"});
  for (const Result& r : results) {
    table.add_row({r.topology, std::to_string(r.events),
                   format_rate(static_cast<double>(r.events) / r.seconds),
                   format_allocs_per_event(r)});
  }
  std::cout << table.render() << "\n";
  std::cout << "events/sec is wall-clock (CI trend only); events and the "
               "zero-allocation\nping-pong steady state are deterministic "
               "and regression-gated.\n";

  // The tentpole's acceptance: the pure event path performs no heap
  // allocation at steady state. Enforced here (and golden-tracked via the
  // events column) so a regression cannot land silently.
  u::check(results[0].allocs == 0,
           "ping_pong steady state allocated on the event hot path");

  if (options.csv_enabled()) {
    u::CsvWriter csv(options.csv_path, {"topology", "events_executed"});
    for (const Result& r : results) {
      csv.add_row({r.topology, std::to_string(r.events)});
    }
  }
  return 0;
}
