// Sweep-engine scaling microbenchmark: times a fixed 12-point training
// sweep (BERT H8192 L2, three strategies x four batch sizes) at 1, 2, 4,
// and all-hardware-threads workers and prints the speedup over the
// single-worker run. This makes the parallel win demonstrable on multi-core
// machines and turns scheduler regressions (a wedged worker, points that
// run one at a time) into a visible slowdown.
//
// The sweep results themselves are also cross-checked between worker
// counts: per-point isolation means numbers must not depend on scheduling.
//
// Usage: bench_sweep_scaling [--csv PATH] [session flags]. It is a batch
// sweep::BenchMain bench that runs its grid on its own runners, so it also
// rejects --workers.

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <iostream>
#include <thread>
#include <vector>

#include "ssdtrain/modules/model.hpp"
#include "ssdtrain/runtime/session.hpp"
#include "ssdtrain/sweep/bench_main.hpp"
#include "ssdtrain/util/check.hpp"
#include "ssdtrain/util/table.hpp"
#include "ssdtrain/util/units.hpp"

namespace m = ssdtrain::modules;
namespace rt = ssdtrain::runtime;
namespace sweep = ssdtrain::sweep;
namespace u = ssdtrain::util;

namespace {

double run_point(const sweep::BenchMain& bench,
                 const sweep::SweepPoint& point) {
  rt::SessionConfig config;
  config.model = m::bert_config(8192, 2, point.i64("batch"));
  config.parallel.tensor_parallel = 2;
  config.strategy = rt::strategy_from(point.str("strategy"));
  bench.configure(config);
  rt::TrainingSession session(std::move(config));
  session.run_step();
  return session.run_step().step_time;
}

}  // namespace

int main(int argc, char** argv) {
  sweep::BenchMain bench(argc, argv, sweep::BenchMain::Shape::batch);
  u::expects(bench.cli().workers == 0,
             "--workers is not supported here: this bench times its own "
             "worker counts (1, 2, 4 and every hardware thread)");

  sweep::SweepSpec spec;
  spec.axis("strategy",
            std::vector<std::string>{
                std::string(to_string(rt::Strategy::keep_in_gpu)),
                std::string(to_string(rt::Strategy::recompute_full)),
                std::string(to_string(rt::Strategy::ssdtrain))})
      .axis("batch", std::vector<std::int64_t>{2, 4, 8, 16});

  const std::size_t hardware =
      std::max(1u, std::thread::hardware_concurrency());
  std::vector<std::size_t> worker_counts = {1, 2, 4};
  if (std::find(worker_counts.begin(), worker_counts.end(), hardware) ==
      worker_counts.end()) {
    worker_counts.push_back(hardware);
  }

  std::cout << "=== Sweep-engine scaling: " << spec.size()
            << "-point BERT H8192 L2 sweep, " << hardware
            << " hardware threads ===\n\n";

  struct Sample {
    std::size_t workers;
    double seconds;
  };
  std::vector<Sample> samples;
  std::vector<double> reference_results;
  for (std::size_t workers : worker_counts) {
    // The timed runners are this bench's subject, so it keeps its own
    // instead of the harness's; each joins before `bench` goes away.
    sweep::SweepRunner runner(workers);
    const auto t0 = std::chrono::steady_clock::now();
    const auto outcomes =
        runner.run(spec, [&bench](const sweep::SweepPoint& p) {
          return run_point(bench, p);
        });
    const double seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count();
    int failed = 0;
    std::vector<double> results;
    for (const auto& o : outcomes) {
      if (!o.ok()) {
        std::cerr << "sweep point failed: " << o.error << "\n";
        ++failed;
        continue;
      }
      results.push_back(o.get());
    }
    if (failed != 0) return 1;
    if (reference_results.empty()) {
      reference_results = results;
    } else {
      // Point isolation: step times must be identical at any worker count.
      u::check(results == reference_results,
               "sweep results depend on worker count");
    }
    samples.push_back({workers, seconds});
  }

  const double serial = samples.front().seconds;
  u::AsciiTable table({"workers", "wall time", "speedup", "efficiency"});
  std::vector<sweep::Cells> rows;
  for (const Sample& s : samples) {
    const double speedup = serial / s.seconds;
    table.add_row({std::to_string(s.workers), u::format_time(s.seconds),
                   u::format_fixed(speedup, 2) + "x",
                   u::format_percent(
                       speedup / static_cast<double>(s.workers), 0)});
    rows.push_back({std::to_string(s.workers), u::format_fixed(s.seconds, 6),
                    u::format_fixed(speedup, 6)});
  }
  std::cout << table.render() << "\n";
  std::cout << "(Speedups saturate at the hardware-thread count; on a "
               "1-core runner every row\nis ~1.0x. Results are verified "
               "identical across worker counts.)\n";

  bench.write_csv({"workers", "wall_time_s", "speedup"}, rows);
  return 0;
}
