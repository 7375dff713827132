// Reproduces Table III of the paper: per-GPU offloaded tensor amount
// (measured in simulation), the closed-form model estimate, and the
// required PCIe write bandwidth, for BERT with (H8192 L4), (H12288 L3),
// (H16384 L2), batch size 16.
//
// Expected shape (paper): measured and estimate within a few percent;
// required bandwidth decreasing as the hidden dimension grows
// (18.0 / 13.8 / 8.76 GB/s on the authors' testbed).
//
// The three configurations run concurrently as a sweep::BenchMain batch
// grid (--workers N); --csv PATH dumps the series.

#include <cstdint>
#include <iostream>
#include <vector>

#include "ssdtrain/modules/model.hpp"
#include "ssdtrain/runtime/session.hpp"
#include "ssdtrain/sweep/bench_main.hpp"
#include "ssdtrain/util/label.hpp"
#include "ssdtrain/util/table.hpp"
#include "ssdtrain/util/units.hpp"

namespace m = ssdtrain::modules;
namespace rt = ssdtrain::runtime;
namespace sweep = ssdtrain::sweep;
namespace u = ssdtrain::util;

namespace {

struct Case {
  std::int64_t hidden;
  int layers;
};

struct Offload {
  double measured = 0.0;
  double estimate = 0.0;
  double bandwidth = 0.0;
};

Offload measure(const sweep::BenchMain& bench, const Case& c) {
  rt::SessionConfig config;
  config.model = m::bert_config(c.hidden, c.layers, 16);
  config.parallel.tensor_parallel = 2;
  config.strategy = rt::Strategy::ssdtrain;
  bench.configure(config);
  rt::TrainingSession session(std::move(config));
  session.run_step();
  const auto stats = session.run_step();
  Offload result;
  result.measured = static_cast<double>(stats.offloaded_bytes);
  result.estimate =
      static_cast<double>(session.plan()->offloadable_bytes_per_step);
  result.bandwidth = stats.required_write_bandwidth;
  return result;
}

}  // namespace

int main(int argc, char** argv) {
  sweep::BenchMain bench(argc, argv, sweep::BenchMain::Shape::batch);

  const std::vector<Case> cases = {{8192, 4}, {12288, 3}, {16384, 2}};

  const auto offloads = bench.run(
      cases, [&bench](const Case& c) { return measure(bench, c); });
  if (!offloads) return 1;

  std::cout << "=== Table III: offloaded amount vs model estimate "
               "(BERT, B=16, TP2) ===\n\n";

  u::AsciiTable table({"config", "offloaded (measured)", "model estimate",
                       "difference", "PCIe write bandwidth"});
  std::vector<sweep::Cells> rows;
  for (std::size_t i = 0; i < cases.size(); ++i) {
    const Offload& r = (*offloads)[i];
    table.add_row({u::label("H", cases[i].hidden) +
                       u::label(" L", cases[i].layers),
                   u::format_bytes(r.measured), u::format_bytes(r.estimate),
                   u::format_percent(r.measured / r.estimate - 1.0),
                   u::format_bandwidth(r.bandwidth)});
    rows.push_back({std::to_string(cases[i].hidden),
                    std::to_string(cases[i].layers),
                    u::format_fixed(r.measured, 0),
                    u::format_fixed(r.estimate, 0),
                    u::format_fixed(r.bandwidth, 0)});
  }
  std::cout << table.render() << "\n";
  std::cout << "Paper reference: offloaded 10.37/12.85/10.75 GB, estimates "
               "11.13/12.60/11.50 GB,\nbandwidth 18.0/13.8/8.76 GB/s "
               "(decreasing with hidden size).\n";

  bench.write_csv({"hidden", "layers", "offloaded_bytes", "estimate_bytes",
                   "write_bandwidth_bps"},
                  rows);
  return 0;
}
