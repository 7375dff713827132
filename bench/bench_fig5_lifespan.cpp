// Reproduces Fig. 5 of the paper: projected SSD lifespan, required PCIe
// write bandwidth per GPU, and maximal per-GPU activation volume for
// large-scale deployments — {Megatron, DeepSpeed-ZeRO3} x {175B, 350B}
// GPT-style models across three cluster sizes each — assuming 4x Samsung
// 980 PRO 1TB per GPU, sequential writes (WAF 1 vs the JESD rating's 2.5),
// and 86x PE-cycle retention relaxation.
//
// Expected shape (paper): lifespan > 2 years everywhere (5+ in most cases),
// write bandwidth <= 12.1 GB/s and decreasing as each system scales up,
// activations 0.4-1.8 TB/GPU per step.
//
// The scenario list runs through sweep::BenchMain as an analytic grid
// (--workers N); --csv PATH dumps the series.

#include <algorithm>
#include <iostream>
#include <string>
#include <vector>

#include "ssdtrain/analysis/lifespan.hpp"
#include "ssdtrain/hw/catalog.hpp"
#include "ssdtrain/sweep/bench_main.hpp"
#include "ssdtrain/util/table.hpp"
#include "ssdtrain/util/units.hpp"

namespace a = ssdtrain::analysis;
namespace hw = ssdtrain::hw;
namespace sweep = ssdtrain::sweep;
namespace u = ssdtrain::util;

int main(int argc, char** argv) {
  sweep::BenchMain bench(argc, argv, sweep::BenchMain::Shape::analytic);

  std::cout << "=== Fig. 5: SSD lifespan / write bandwidth / activation "
               "volume at scale ===\n"
            << "(4x Samsung 980 PRO 1TB per GPU; WAF 2.5 under the JESD "
               "rating vs 1 for\nsequential tensor writes; 86x PE budget "
               "from 3-year -> 1-day retention)\n\n";

  a::SsdProvisioning provisioning;
  provisioning.rating = hw::catalog::samsung_980pro_rating();
  const auto gpu = hw::catalog::a100_sxm_80gb();

  const auto scenarios = a::fig5_scenarios();
  // By value: a timed-out point outlives this scope.
  const auto projections =
      bench.run(scenarios, [gpu, provisioning](const a::ClusterScenario& s) {
        return a::project_lifespan(s, gpu, provisioning);
      });
  if (!projections) return 1;

  u::AsciiTable table({"framework & model", "# GPUs", "step time",
                       "write BW per GPU", "lifespan",
                       "max activations per GPU"});
  double worst_lifespan = 1e18;
  double max_bw = 0.0;
  std::string last_label;
  for (std::size_t i = 0; i < scenarios.size(); ++i) {
    const auto& scenario = scenarios[i];
    const auto& proj = (*projections)[i];
    if (scenario.label != last_label && !last_label.empty()) {
      table.add_separator();
    }
    last_label = scenario.label;
    worst_lifespan = std::min(worst_lifespan, proj.lifespan);
    max_bw = std::max(max_bw, proj.write_bandwidth_per_gpu);
    table.add_row(
        {scenario.label, std::to_string(scenario.gpu_count),
         u::format_time(proj.step_time),
         u::format_bandwidth(proj.write_bandwidth_per_gpu),
         u::format_duration_long(proj.lifespan),
         u::format_bytes(static_cast<double>(
             proj.activations_per_gpu_step))});
  }
  std::cout << table.render() << "\n";
  std::cout << "worst-case lifespan : "
            << u::format_duration_long(worst_lifespan)
            << "   (paper: > 2 years in all cases)\n";
  std::cout << "max write bandwidth : " << u::format_bandwidth(max_bw)
            << "   (paper: <= 12.1 GB/s)\n";

  std::vector<sweep::Cells> rows;
  for (std::size_t i = 0; i < scenarios.size(); ++i) {
    const auto& proj = (*projections)[i];
    rows.push_back({scenarios[i].label,
                    std::to_string(scenarios[i].gpu_count),
                    u::format_fixed(proj.step_time, 6),
                    u::format_fixed(proj.write_bandwidth_per_gpu, 0),
                    u::format_fixed(proj.lifespan, 0),
                    std::to_string(proj.activations_per_gpu_step)});
  }
  bench.write_csv({"scenario", "gpus", "step_time_s",
                   "write_bandwidth_per_gpu_bps", "lifespan_s",
                   "activations_per_gpu_step_bytes"},
                  rows);
  return 0;
}
