// Cluster-scale throughput bench: steps/sec of a ClusterSession as the
// pipeline deepens (weak scaling: 2 layers and 2 micro-batches per added
// stage), for the keep-in-GPU baseline and SSDTrain offloading, with a
// ZeRO-2 DP group of 2 riding the DP fabric. steps/sec is wall clock and
// serves as a CI trend only; the CSV holds the deterministic simulated
// series (step time, pipeline makespan, measured bubble, fabric traffic)
// that the regression golden gates within 2%.
//
// The `smoke` mode runs the small pipelines as a tier-1 CTest entry so the
// ASan/UBSan and TSan legs drive the multi-stage dispatch loop, the
// boundary-send flows, and per-stage record/replay on every build.

#include <chrono>
#include <cstdint>
#include <iostream>
#include <string>
#include <vector>

#include "ssdtrain/modules/model.hpp"
#include "ssdtrain/runtime/cluster_session.hpp"
#include "ssdtrain/sched/schedule.hpp"
#include "ssdtrain/sweep/bench_main.hpp"
#include "ssdtrain/util/label.hpp"
#include "ssdtrain/util/table.hpp"
#include "ssdtrain/util/units.hpp"

namespace m = ssdtrain::modules;
namespace rt = ssdtrain::runtime;
namespace sched = ssdtrain::sched;
namespace sweep = ssdtrain::sweep;
namespace u = ssdtrain::util;

namespace {

int g_measure_steps = 4;

struct ScalePoint {
  double seconds = 0.0;  ///< wall clock of the measured steps
  int steps = 0;
  rt::ClusterStepStats stats;  ///< last measured step (deterministic)
};

ScalePoint measure(const sweep::BenchMain& bench,
                   const sweep::SweepPoint& point) {
  const int pp = static_cast<int>(point.i64("pp"));

  rt::ClusterConfig config;
  // Weak scaling: 2 layers and 2 micro-batches per stage keep per-GPU work
  // constant as the pipeline deepens.
  config.model = m::bert_config(2048, 2 * pp, 4);
  config.parallel.tensor_parallel = 2;
  config.parallel.pipeline_parallel = pp;
  config.parallel.data_parallel = 2;
  config.parallel.zero = ssdtrain::parallel::ZeroStage::stage2;
  config.strategy = rt::strategy_from(point.str("strategy"));
  config.micro_batches = 2 * pp;
  config.schedule = sched::PipelineKind::one_f_one_b;
  bench.configure(config);
  rt::ClusterSession session(std::move(config));

  // Step 1 traces and records every stage's program; the timed window then
  // measures the replayed steady state.
  session.run_step();
  ScalePoint result;
  result.steps = g_measure_steps;
  const auto start = std::chrono::steady_clock::now();
  for (int i = 0; i < g_measure_steps; ++i) {
    result.stats = session.run_step();
  }
  const auto stop = std::chrono::steady_clock::now();
  result.seconds = std::chrono::duration<double>(stop - start).count();
  return result;
}

}  // namespace

int main(int argc, char** argv) {
  sweep::BenchMain bench(argc, argv, sweep::BenchMain::Shape::streamed,
                         {"smoke"});

  std::vector<std::int64_t> depths = {1, 2, 4};
  std::vector<std::string> strategies = {"keep-in-gpu", "ssdtrain"};
  if (bench.mode("smoke")) {
    depths = {1, 2};
    g_measure_steps = 1;
  }

  std::cout << "=== Cluster scale: steps/sec vs pipeline depth x strategy "
               "(BERT H2048, 2 layers/stage, TP2 DP2 ZeRO-2) ===\n\n";

  sweep::SweepSpec spec;
  spec.axis("pp", depths).axis("strategy", strategies);

  const auto done = bench.stream(
      spec,
      {"pp", "strategy", "step_time_s", "pipeline_time_s", "measured_bubble",
       "p2p_bytes", "dp_bytes"},
      [&bench](const sweep::SweepPoint& p) { return measure(bench, p); },
      [](const ScalePoint& r) -> sweep::Cells {
        return {u::format_fixed(r.stats.combined.step_time, 9),
                u::format_fixed(r.stats.pipeline_time, 9),
                u::format_fixed(r.stats.measured_bubble, 6),
                std::to_string(r.stats.p2p_bytes),
                std::to_string(r.stats.dp_bytes)};
      });

  u::AsciiTable table({"pipeline", "strategy", "steps/sec", "step time",
                       "measured bubble", "p2p traffic", "DP traffic"});
  for (const auto& [point, r] : done) {
    table.add_row({u::label("PP", point.i64("pp")), point.str("strategy"),
                   u::format_fixed(r.steps / r.seconds, 1),
                   u::format_time(r.stats.combined.step_time),
                   u::format_percent(r.stats.measured_bubble),
                   u::format_bytes(static_cast<double>(r.stats.p2p_bytes)),
                   u::format_bytes(static_cast<double>(r.stats.dp_bytes))});
  }
  std::cout << table.render() << "\n";
  std::cout << "steps/sec is wall-clock (CI trend only); the CSV series is "
               "simulated and\ndeterministic — the regression golden gates "
               "it within 2%.\n";

  return bench.exit_code();
}
