// Tests for GPU timing model, PCIe parameters, and the TrainingNode wiring
// (Table II evaluation machine).

#include <gtest/gtest.h>

#include <fstream>
#include <optional>
#include <string>

#include "ssdtrain/hw/catalog.hpp"
#include "ssdtrain/hw/gpu.hpp"
#include "ssdtrain/hw/node.hpp"
#include "ssdtrain/hw/pcie.hpp"
#include "ssdtrain/util/check.hpp"
#include "ssdtrain/util/units.hpp"

namespace hw = ssdtrain::hw;
namespace u = ssdtrain::util;

namespace {

/// A KiB field of /proc/self/status, such as "VmRSS:" (resident set) or
/// "VmSize:" (mapped address space).
std::optional<long> status_kib(const std::string& field) {
  std::ifstream status("/proc/self/status");
  std::string key;
  while (status >> key) {
    if (key == field) {
      long kib = 0;
      if (status >> kib) return kib;
      return std::nullopt;
    }
    status.ignore(1 << 12, '\n');
  }
  return std::nullopt;
}

}  // namespace

TEST(Gpu, EfficiencySaturatesWithKernelSize) {
  hw::Gpu gpu(hw::catalog::a100_pcie_40gb());
  const double small = gpu.effective_rate(1e9);
  const double large = gpu.effective_rate(1e13);
  EXPECT_LT(small, large);
  EXPECT_LE(large, gpu.spec().fp16_peak * gpu.spec().max_efficiency);
  // Large kernels approach the asymptote.
  EXPECT_GT(large / (gpu.spec().fp16_peak * gpu.spec().max_efficiency), 0.98);
}

TEST(Gpu, RooflinePicksComputeOrMemoryBound) {
  hw::Gpu gpu(hw::catalog::a100_pcie_40gb());
  // Compute-bound GEMM: many FLOPs, few bytes.
  hw::KernelDesc gemm{"gemm", 1e13, u::mib(512), u::mib(512)};
  // Memory-bound elementwise: few FLOPs, many bytes.
  hw::KernelDesc eltwise{"add", 1e8, u::gib(2), u::gib(2)};
  const double gemm_time = gpu.kernel_time(gemm);
  const double elt_time = gpu.kernel_time(eltwise);
  EXPECT_GT(gemm_time, 1e13 / gpu.spec().fp16_peak);
  // Elementwise time is close to pure memory time.
  EXPECT_NEAR(elt_time,
              gpu.memory_time(u::gib(4)) + gpu.spec().kernel_launch_latency,
              1e-6);
}

TEST(Gpu, LaunchLatencyFloorsTinyKernels) {
  hw::Gpu gpu(hw::catalog::a100_pcie_40gb());
  hw::KernelDesc tiny{"tiny", 1e3, 512, 512};
  EXPECT_GE(gpu.kernel_time(tiny), gpu.spec().kernel_launch_latency);
}

TEST(Gpu, A100SustainedThroughputInMeasuredBand) {
  // A Megatron-layer-sized GEMM (batch 16, seq 1024, hidden 12288, TP2)
  // should sustain roughly 45-55% of peak — the MFU band behind the
  // paper's ~140-150 TFLOP/s per-GPU model throughput.
  hw::Gpu gpu(hw::catalog::a100_pcie_40gb());
  const double gemm_flops = 3.7e12;  // QKV projection slice
  const double rate = gpu.effective_rate(gemm_flops);
  EXPECT_GT(rate, 0.40 * gpu.spec().fp16_peak);
  EXPECT_LT(rate, 0.60 * gpu.spec().fp16_peak);
}

TEST(Pcie, Gen4x16EffectiveBandwidth) {
  const auto link = hw::catalog::pcie_gen4_x16();
  const double bw = hw::effective_bandwidth(link);
  // ~31.5 GB/s raw, ~26-27 GB/s effective.
  EXPECT_GT(bw, u::gbps(24));
  EXPECT_LT(bw, u::gbps(29));
}

TEST(Pcie, GenerationsScale) {
  EXPECT_NEAR(hw::per_lane_rate(hw::PcieGeneration::gen4) /
                  hw::per_lane_rate(hw::PcieGeneration::gen3),
              2.0, 0.01);
  EXPECT_NEAR(hw::per_lane_rate(hw::PcieGeneration::gen5) /
                  hw::per_lane_rate(hw::PcieGeneration::gen4),
              2.0, 0.01);
}

TEST(Node, Table2MachineMatchesPaperSpec) {
  auto node = hw::TrainingNode(hw::catalog::table2_evaluation_node());
  EXPECT_EQ(node.gpu_count(), 2);
  ASSERT_TRUE(node.has_array(0));
  ASSERT_TRUE(node.has_array(1));
  EXPECT_EQ(node.array(0).member_count(), 3u);  // 3-SSD RAID0
  EXPECT_EQ(node.array(1).member_count(), 4u);  // 4-SSD RAID0
  // 7 Optanes total; each GPU gets 40 GB.
  EXPECT_EQ(node.gpu(0).allocator->capacity(), u::gib(40));
  // The measured GPU (per the paper, the one with 4 SSDs).
  EXPECT_EQ(hw::catalog::table2_measured_gpu, 1);
}

// Building the machine writes no page, so it must leave the FTL tables of
// its seven 1.6 TB drives untouched: a session costs memory only for the
// pages it writes.
TEST(Node, BuildingTable2NodeTouchesNoFtlTables) {
  const std::optional<long> before = status_kib("VmRSS:");
  if (!before) GTEST_SKIP() << "VmRSS is not readable here";
  hw::TrainingNode node(hw::catalog::table2_evaluation_node());
  const std::optional<long> after = status_kib("VmRSS:");
  ASSERT_TRUE(after.has_value());
  EXPECT_LT(*after - *before, 16 * 1024) << "KiB of resident growth";
}

// Each drive maps its FTL tables (about 27 MiB of address space for a
// 1.6 TB drive, 185 MiB for all seven) at its first write, so building the
// machine, which writes nothing, must not map them at all.
TEST(Node, BuildingTable2NodeMapsNoFtlTables) {
  const std::optional<long> before = status_kib("VmSize:");
  if (!before) GTEST_SKIP() << "VmSize is not readable here";
  hw::TrainingNode node(hw::catalog::table2_evaluation_node());
  const std::optional<long> after = status_kib("VmSize:");
  ASSERT_TRUE(after.has_value());
  EXPECT_LT(*after - *before, 64 * 1024) << "KiB of address-space growth";
}

TEST(Node, GdsPathAvoidsHostMemory) {
  auto node = hw::TrainingNode(hw::catalog::table2_evaluation_node());
  const auto path = node.gds_write_path(1);
  for (auto r : path) {
    EXPECT_NE(r, node.dram_resource());
    EXPECT_NE(r, node.dram_bounce_resource());
  }
  const auto bounce = node.bounce_write_path(1);
  bool crosses_dram = false;
  for (auto r : bounce) {
    if (r == node.dram_bounce_resource()) crosses_dram = true;
  }
  EXPECT_TRUE(crosses_dram);
}

TEST(Node, GdsWriteFlowBottleneckedBySsdArray) {
  auto node = hw::TrainingNode(hw::catalog::table2_evaluation_node());
  auto& net = node.network();
  auto& sim = node.simulator();
  // 4-SSD array: 24.4 GB/s write; PCIe gen4 x16: ~26.8 GB/s. The array is
  // the bottleneck for GDS writes.
  double t_done = -1;
  net.start_flow("store", u::gb(24.4), node.gds_write_path(1),
                 [&] { t_done = sim.now(); });
  sim.run();
  EXPECT_NEAR(t_done, 1.0, 0.05);
}

TEST(Node, BouncePathSlowerThanGds) {
  auto node = hw::TrainingNode(hw::catalog::table2_evaluation_node());
  auto& net = node.network();
  auto& sim = node.simulator();
  double t_gds = -1, t_bounce = -1;
  net.start_flow("gds", u::gb(10), node.gds_write_path(1),
                 [&] { t_gds = sim.now(); });
  sim.run();
  const double start = sim.now();
  net.start_flow("bounce", u::gb(10), node.bounce_write_path(1),
                 [&] { t_bounce = sim.now() - start; });
  sim.run();
  EXPECT_GT(t_bounce, 0.0);
  EXPECT_GE(t_bounce, t_gds * 0.99);  // never faster than the direct path
}

TEST(Node, NodeWithoutArraysStillConstructs) {
  hw::NodeConfig cfg = hw::catalog::single_gpu_node(0);
  cfg.arrays.clear();
  auto node = hw::TrainingNode(std::move(cfg));
  EXPECT_FALSE(node.has_array(0));
  EXPECT_THROW((void)node.array(0), u::ContractViolation);
}
