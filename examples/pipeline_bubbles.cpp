// Pipeline-parallelism study (paper §IV-D, "Impact of larger micro-batch
// size"): with a fixed per-rank mini-batch, a larger micro-batch size means
// fewer micro-batches and therefore larger 1F1B pipeline bubbles — but
// small micro-batches pay more weight-update and efficiency overhead.
// SSDTrain's memory savings let the trainer raise the micro-batch size
// without blowing the activation budget, navigating this trade-off.
//
// This example runs the full 4-stage pipeline as a measured ClusterSession
// (one executor + offloader per stage on one shared simulator) for several
// micro-batch sizes of a fixed 32-sample mini-batch (the BLOOM
// configuration the paper cites) and prints the analytical 1F1B bubble
// side by side with the measured one — the measured bubble sits above the
// ideal because pipeline sends contend with SSD offload traffic on each
// GPU's PCIe link. The micro-batch axis runs as a streamed sweep::BenchMain
// grid (--workers N, --points, --shard, resumable --csv PATH); --pp/--tp
// override the pipeline shape.

#include <cstdint>
#include <iostream>
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

constexpr int kMiniBatchSamples = 32;  // per DP rank, as in BLOOM
constexpr int kLayersPerStage = 3;

struct StageResult {
  int micro_batches = 0;
  double bubble = 0.0;  ///< analytical (pp-1)/(mb+pp-1)
  rt::ClusterStepStats stats;
};

/// The PP4 TP2 cluster with the command line applied (--pp/--tp reshape
/// it); the model follows the pipeline depth, so it is set afterwards.
rt::ClusterConfig base_config(const sweep::BenchMain& bench) {
  rt::ClusterConfig config;
  config.parallel.tensor_parallel = 2;
  config.parallel.pipeline_parallel = 4;
  config.strategy = rt::Strategy::ssdtrain;
  config.schedule = sched::PipelineKind::one_f_one_b;
  bench.configure(config);
  return config;
}

StageResult measure(const sweep::BenchMain& bench,
                    const sweep::SweepPoint& point) {
  const std::int64_t mb_size = point.i64("micro_batch");
  StageResult result;
  result.micro_batches = kMiniBatchSamples / static_cast<int>(mb_size);

  rt::ClusterConfig config = base_config(bench);
  const int stages = config.parallel.pipeline_parallel;
  config.model = m::bert_config(8192, kLayersPerStage * stages, mb_size);
  config.micro_batches = result.micro_batches;
  rt::ClusterSession session(std::move(config));

  // Step 1 traces and records every stage's program; step 2 is the
  // replayed steady state the numbers come from.
  result.stats = session.run_steps(2).back();
  result.bubble = sched::ideal_bubble_fraction(result.micro_batches, stages);
  return result;
}

}  // namespace

int main(int argc, char** argv) {
  sweep::BenchMain bench(argc, argv, sweep::BenchMain::Shape::streamed);

  std::cout << "1F1B pipeline study: BERT H8192, " << kLayersPerStage
            << " layers per stage, "
            << base_config(bench).parallel.pipeline_parallel << " stages, "
            << kMiniBatchSamples << "-sample mini-batch per rank\n\n";

  sweep::SweepSpec spec;
  spec.axis("micro_batch", std::vector<std::int64_t>{1, 2, 4, 8});

  // Measured full-cluster throughput: the mini-batch over the measured
  // step (compute pipeline + DP reduction + optimizer).
  const auto samples_per_s = [](const StageResult& r) {
    return kMiniBatchSamples / r.stats.combined.step_time;
  };
  const auto done = bench.stream(
      spec,
      {"micro_batch", "micro_batches", "ideal_bubble", "measured_bubble",
       "pipeline_time_s", "activation_peak_bytes", "step_time_s",
       "samples_per_s_cluster"},
      [&bench](const sweep::SweepPoint& p) { return measure(bench, p); },
      [samples_per_s](const StageResult& r) -> sweep::Cells {
        return {std::to_string(r.micro_batches), u::format_fixed(r.bubble, 6),
                u::format_fixed(r.stats.measured_bubble, 6),
                u::format_fixed(r.stats.pipeline_time, 9),
                std::to_string(r.stats.combined.activation_peak),
                u::format_fixed(r.stats.combined.step_time, 9),
                u::format_fixed(samples_per_s(r), 6)};
      });

  u::AsciiTable table({"micro-batch size", "micro-batches", "ideal bubble",
                       "measured bubble", "pipeline time",
                       "activation peak (stage)", "samples/s (cluster)"});
  for (const auto& [point, r] : done) {
    table.add_row({u::label("B", point.i64("micro_batch")),
                   std::to_string(r.micro_batches),
                   u::format_percent(r.bubble),
                   u::format_percent(r.stats.measured_bubble),
                   u::format_time(r.stats.pipeline_time),
                   u::format_bytes(static_cast<double>(
                       r.stats.combined.activation_peak)),
                   u::format_fixed(samples_per_s(r), 2)});
  }
  std::cout << table.render() << "\n";
  std::cout
      << "Larger micro-batches raise per-GPU efficiency but shrink the\n"
         "micro-batch count, inflating the pipeline bubble; the measured\n"
         "bubble sits above the ideal because boundary sends share PCIe "
         "with\nSSD offload traffic. SSDTrain's point (paper §IV-D): "
         "because offloading\nfrees activation memory, the trainer can "
         "afford larger micro-batch sizes\nAND keep enough micro-batches "
         "in flight.\n";

  return bench.exit_code();
}
