// Resilience bench: degraded-mode training metrics under seeded fault
// injection, over fault rate x strategy x pipeline depth. For each grid
// cell a ClusterSession runs with a transient io-error window at the given
// rate (plus a periodic SSD latency spike), and the bench reports
//
//   * p50/p99 step time over the measured window — tail latency is where
//     retry/backoff shows up first;
//   * goodput: mean model throughput relative to the same cell at rate 0
//     (the resilience layer's overhead, not the model's speed);
//   * total I/O retries and recompute fallbacks over the window;
//   * time-to-recover from a structural fault: after the measured window a
//     RAID member of GPU 0 is dropped at a step boundary, and the bench
//     counts the steps until step time settles back within 5% of the
//     pre-fault mean (re-trace + re-record + rebalanced budget);
//   * goodput vs MTBF under stage crashes, twice per cell: the optimistic
//     pause model (lose=none — the stream stalls, every tensor survives)
//     vs destructive crashes (lose=state) recovered from Young-Daly-paced
//     checkpoints on the offload SSDs. The gap between the two columns is
//     the price of real crash semantics the pause model understates.
//
// Everything in the CSV is simulated and deterministic for a fixed
// --fault-seed (default 7): the regression golden gates it within 2%. The
// `smoke` mode runs one shallow cell as a tier-1 CTest entry so the
// sanitizer legs drive the retry and fallback paths on every build.

#include <algorithm>
#include <cstdint>
#include <iostream>
#include <string>
#include <vector>

#include "ssdtrain/ckpt/policy.hpp"
#include "ssdtrain/fault/fault.hpp"
#include "ssdtrain/modules/model.hpp"
#include "ssdtrain/runtime/cluster_session.hpp"
#include "ssdtrain/sched/schedule.hpp"
#include "ssdtrain/sweep/bench_main.hpp"
#include "ssdtrain/util/stats.hpp"
#include "ssdtrain/util/table.hpp"
#include "ssdtrain/util/units.hpp"

namespace ck = ssdtrain::ckpt;
namespace f = ssdtrain::fault;
namespace m = ssdtrain::modules;
namespace rt = ssdtrain::runtime;
namespace sched = ssdtrain::sched;
namespace sweep = ssdtrain::sweep;
namespace u = ssdtrain::util;

namespace {

int g_measure_steps = 6;
int g_recover_cap = 8;
int g_crash_count = 3;  ///< stage crashes per goodput-vs-MTBF run

struct ResiliencePoint {
  double p50 = 0.0;
  double p99 = 0.0;
  double mean_step = 0.0;
  double throughput = 0.0;  ///< mean model FLOP/s over the window
  std::uint64_t io_retries = 0;
  std::uint64_t recompute_fallbacks = 0;
  double fault_stall = 0.0;
  /// Steps after the injected RAID-member dropout until step time returns
  /// to within 5% of the pre-fault mean (0 = no injector at this cell).
  int recover_steps = 0;
  /// Goodput-vs-MTBF comparison (fresh sessions, stage crashes at this
  /// MTBF): the optimistic pause model vs checkpoint-recovered state loss.
  double mtbf = 0.0;
  double goodput_pause = 0.0;
  double goodput_ckpt = 0.0;
};

/// Builds the cell's base cluster config (no fault specs attached; the
/// callers add theirs, then apply the command line with configure()).
rt::ClusterConfig cell_config(const sweep::SweepPoint& point) {
  const int pp = static_cast<int>(point.i64("pp"));
  rt::ClusterConfig config;
  config.model = m::bert_config(2048, 2 * pp, 4);
  config.parallel.pipeline_parallel = pp;
  config.strategy = rt::strategy_from(point.str("strategy"));
  config.micro_batches = 2 * pp;
  config.schedule = sched::PipelineKind::one_f_one_b;
  return config;
}

/// Goodput under stage crashes arriving with mean gap \p mtbf on the
/// deterministic low-discrepancy schedule. \p destructive selects the
/// semantics: lose=state (device state wiped; Young-Daly-paced checkpoints
/// to the offload SSDs, restore + rollback + replay per crash) vs the
/// historical lose=none pause (the stream stalls, nothing is lost). Crashes
/// go through trigger() at step boundaries — a future `at` in a spec would
/// fire during the first step's queue drain.
double crash_goodput(const sweep::BenchMain& bench,
                     const sweep::SweepPoint& point, double mtbf,
                     bool destructive) {
  rt::ClusterConfig config = cell_config(point);
  f::FaultSpec arm;  // inert: the injector must exist for trigger()
  arm.kind = f::FaultKind::ssd_latency;
  arm.latency = 1e-9;
  arm.at = 0.0;
  arm.duration = 1e-9;
  config.faults.specs = {arm};
  config.faults.seed = 7;
  if (destructive) {
    config.checkpoint.auto_interval = true;
    config.checkpoint.mtbf = mtbf;
  }
  bench.configure(config);
  rt::ClusterSession session(std::move(config));

  f::FaultSpec crash;
  crash.kind = f::FaultKind::stage_crash;
  crash.gpu = 0;
  crash.duration = 0.25;  // restart stall before recovery begins
  crash.lose = destructive ? f::CrashLoss::state : f::CrashLoss::none;

  f::CrashSchedule schedule(mtbf);
  int crashes = 0;
  const int cap = 40 * g_crash_count;
  for (int steps = 0; crashes < g_crash_count && steps < cap; ++steps) {
    if (schedule.consume(session.goodput().wall_clock) > 0) {
      session.injector()->trigger(crash);
      ++crashes;
    }
    session.run_step();
  }
  const ck::GoodputReport report = session.goodput();
  if (destructive) return report.goodput();
  // The pause model has no checkpoint ledger: nothing is ever lost, so
  // its goodput only discounts the restart stalls themselves — exactly
  // the optimism the destructive column corrects.
  const double downtime = crashes * crash.duration;
  return (report.wall_clock - downtime) / report.wall_clock;
}

ResiliencePoint measure(const sweep::BenchMain& bench,
                        const sweep::SweepPoint& point) {
  const double rate = point.f64("rate");

  rt::ClusterConfig config = cell_config(point);
  // An explicit --faults replaces these generated specs in configure() (the
  // rate axis then only varies the label).
  if (rate > 0.0) {
    f::FaultSpec errors;
    errors.kind = f::FaultKind::io_error;
    errors.rate = rate;
    f::FaultSpec spike;  // recurring latency window: NVMe-side GC pause
    spike.kind = f::FaultKind::ssd_latency;
    spike.latency = u::us(200);
    spike.at = 0.05;
    spike.duration = 0.05;
    config.faults.specs = {errors, spike};
    config.faults.seed = 7;
  }
  bench.configure(config);
  rt::ClusterSession session(std::move(config));

  // Warm-up steps record every stage's program (chunk stagger), so the
  // measured window is the replayed steady state under faults.
  session.run_step();
  session.run_step();

  ResiliencePoint result;
  std::vector<double> step_times;
  step_times.reserve(static_cast<std::size_t>(g_measure_steps));
  for (int i = 0; i < g_measure_steps; ++i) {
    const rt::ClusterStepStats stats = session.run_step();
    step_times.push_back(stats.combined.step_time);
    result.mean_step += stats.combined.step_time / g_measure_steps;
    result.throughput += stats.combined.model_throughput / g_measure_steps;
    result.io_retries += stats.combined.io_retries;
    result.recompute_fallbacks += stats.combined.recompute_fallbacks;
    result.fault_stall += stats.combined.fault_stall_time;
  }
  result.p50 = u::percentile(step_times, 50.0);
  result.p99 = u::percentile(step_times, 99.0);

  if (session.injector() != nullptr) {
    // Structural-fault recovery: drop a RAID member of GPU 0 at this step
    // boundary, then count steps until the step time settles back within
    // 5% of the pre-fault mean. The first post-fault step re-traces every
    // stage (program invalidation) and rebalances the offload budget.
    f::FaultSpec dropout;
    dropout.kind = f::FaultKind::ssd_dropout;
    dropout.gpu = 0;
    dropout.member = 0;
    session.injector()->trigger(dropout);
    for (int i = 1; i <= g_recover_cap; ++i) {
      const rt::ClusterStepStats stats = session.run_step();
      result.recover_steps = i;
      if (stats.combined.step_time <= 1.05 * result.mean_step) break;
    }
  }

  // Goodput vs MTBF: fresh sessions at this cell's shape, crashes with a
  // mean gap of 12 healthy steps — frequent enough that three of them
  // expose the lost-work and restore terms, deterministic via the
  // low-discrepancy schedule.
  result.mtbf = 12.0 * result.mean_step;
  result.goodput_pause = crash_goodput(bench, point, result.mtbf, false);
  result.goodput_ckpt = crash_goodput(bench, point, result.mtbf, true);
  return result;
}

}  // namespace

int main(int argc, char** argv) {
  sweep::BenchMain bench(argc, argv, sweep::BenchMain::Shape::streamed);

  std::vector<double> rates = {0.0, 0.01, 0.05};
  std::vector<std::string> strategies = {"ssdtrain", "ssdtrain+recompute"};
  std::vector<std::int64_t> depths = {1, 2};
  if (bench.mode("smoke")) {
    rates = {0.05};
    strategies = {"ssdtrain"};
    depths = {1};
    g_measure_steps = 3;
    g_recover_cap = 4;
    g_crash_count = 2;
  }

  std::cout << "=== Resilience: step-time tail, goodput, and recovery vs "
               "fault rate x strategy x pipeline depth ===\n\n";

  sweep::SweepSpec spec;
  spec.axis("rate", rates).axis("strategy", strategies).axis("pp", depths);

  const auto done = bench.stream(
      spec,
      {"rate", "strategy", "pp", "p50_step_s", "p99_step_s", "mean_step_s",
       "throughput_flops", "io_retries", "recompute_fallbacks",
       "fault_stall_s", "recover_steps", "mtbf_s", "goodput_pause",
       "goodput_ckpt"},
      [&bench](const sweep::SweepPoint& p) { return measure(bench, p); },
      [](const ResiliencePoint& r) -> sweep::Cells {
        return {u::format_fixed(r.p50, 9), u::format_fixed(r.p99, 9),
                u::format_fixed(r.mean_step, 9),
                u::format_fixed(r.throughput, 3), std::to_string(r.io_retries),
                std::to_string(r.recompute_fallbacks),
                u::format_fixed(r.fault_stall, 9),
                std::to_string(r.recover_steps), u::format_fixed(r.mtbf, 9),
                u::format_fixed(r.goodput_pause, 6),
                u::format_fixed(r.goodput_ckpt, 6)};
      },
      // The rate key is fixed-point ("0.0100"), which resume matches as is.
      [](const sweep::SweepPoint& p) -> sweep::Cells {
        return {u::format_fixed(p.f64("rate"), 4), p.str("strategy"),
                std::to_string(p.i64("pp"))};
      });

  u::AsciiTable table({"fault rate", "strategy", "pp", "p50 step", "p99 step",
                       "retries", "fallbacks", "stall", "recover steps",
                       "mtbf", "goodput pause", "goodput ckpt"});
  for (const auto& [point, r] : done) {
    table.add_row({u::format_fixed(point.f64("rate"), 2),
                   point.str("strategy"), std::to_string(point.i64("pp")),
                   u::format_time(r.p50), u::format_time(r.p99),
                   std::to_string(r.io_retries),
                   std::to_string(r.recompute_fallbacks),
                   u::format_time(r.fault_stall),
                   std::to_string(r.recover_steps),
                   u::format_time(r.mtbf),
                   u::format_fixed(r.goodput_pause, 4),
                   u::format_fixed(r.goodput_ckpt, 4)});
  }
  std::cout << table.render() << "\n";
  std::cout << "Deterministic for a fixed --fault-seed; recovery = steps "
               "until step time is back\nwithin 5% of the pre-dropout mean "
               "(re-trace + rebalanced offload budget).\nGoodput columns: "
               "stage crashes at the listed MTBF, as optimistic pauses "
               "(lose=none,\nnothing lost) vs destructive crashes "
               "(lose=state) recovered from Young-Daly-paced\ncheckpoints "
               "on the offload SSDs — the gap is what the pause model "
               "hides.\n";
  return bench.exit_code();
}
