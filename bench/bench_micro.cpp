// Google-benchmark micro-benchmarks for the framework's own machinery:
// pack/unpack hook cost, FTL page-write throughput, block-allocator
// operations, the discrete-event engine, max-min fair reallocation
// (incremental vs full refill, coalesced bursts), and the sweep runner's
// dispatch overhead. These quantify the claim that SSDTrain's CPU-side
// logic is cheap enough to stay off the critical path (paper §IV-B).

#include <benchmark/benchmark.h>

#include <vector>

#include "ssdtrain/core/offloader.hpp"
#include "ssdtrain/core/tensor_cache.hpp"
#include "ssdtrain/hw/block_allocator.hpp"
#include "ssdtrain/hw/catalog.hpp"
#include "ssdtrain/hw/ssd/ftl.hpp"
#include "ssdtrain/sim/bandwidth_network.hpp"
#include "ssdtrain/sim/simulator.hpp"
#include "ssdtrain/sweep/runner.hpp"
#include "ssdtrain/util/logging.hpp"
#include "ssdtrain/util/rng.hpp"
#include "ssdtrain/util/units.hpp"

namespace core = ssdtrain::core;
namespace hw = ssdtrain::hw;
namespace sim = ssdtrain::sim;
namespace t = ssdtrain::tensor;
namespace u = ssdtrain::util;

static void BM_SimulatorEventDispatch(benchmark::State& state) {
  for (auto _ : state) {
    sim::Simulator s;
    for (int i = 0; i < 1000; ++i) {
      s.schedule_at(static_cast<double>(i), [] {});
    }
    s.run();
  }
  state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_SimulatorEventDispatch);

static void BM_BlockAllocatorChurn(benchmark::State& state) {
  hw::BlockAllocator arena(u::gib(4), 512);
  u::Xoshiro256 rng(1);
  std::vector<hw::Block> live;
  for (auto _ : state) {
    if (live.size() < 256 && (live.empty() || rng.uniform() < 0.6)) {
      auto block = arena.allocate(
          static_cast<u::Bytes>(rng.uniform_int(1 << 20) + 1));
      if (block) live.push_back(*block);
    } else {
      const auto idx = rng.uniform_int(live.size());
      arena.free(live[idx]);
      live[idx] = live.back();
      live.pop_back();
    }
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_BlockAllocatorChurn);

static void BM_FtlSequentialWrites(benchmark::State& state) {
  hw::NandGeometry geo;
  geo.page_size = u::kib(16);
  geo.pages_per_block = 64;
  geo.physical_blocks = 512;
  geo.over_provisioning = 0.1;
  geo.pe_cycle_limit = 1 << 30;
  hw::Ftl ftl(geo);
  const std::int64_t extent = 512;
  const std::int64_t slots = ftl.logical_pages() / extent;
  std::int64_t cursor = 0;
  for (auto _ : state) {
    const std::int64_t slot = cursor++ % slots;
    ftl.write_extent(slot * extent, extent);
    ftl.trim_extent(slot * extent, extent);
  }
  state.SetItemsProcessed(state.iterations() * extent);
  state.counters["waf"] = ftl.write_amplification();
}
BENCHMARK(BM_FtlSequentialWrites);

static void BM_FtlRandomOverwrites(benchmark::State& state) {
  hw::NandGeometry geo;
  geo.page_size = u::kib(16);
  geo.pages_per_block = 64;
  geo.physical_blocks = 256;
  geo.over_provisioning = 0.15;
  geo.pe_cycle_limit = 1 << 30;
  hw::Ftl ftl(geo);
  ftl.write_extent(0, ftl.logical_pages());
  u::Xoshiro256 rng(2);
  for (auto _ : state) {
    ftl.write_page(static_cast<hw::Lpa>(
        rng.uniform_int(static_cast<std::uint64_t>(ftl.logical_pages()))));
  }
  state.SetItemsProcessed(state.iterations());
  state.counters["waf"] = ftl.write_amplification();
}
BENCHMARK(BM_FtlRandomOverwrites);

static void BM_MaxMinFairReallocation(benchmark::State& state) {
  const int flows = static_cast<int>(state.range(0));
  for (auto _ : state) {
    sim::Simulator s;
    sim::BandwidthNetwork net(s);
    auto link = net.add_resource("link", u::gbps(100));
    for (int i = 0; i < flows; ++i) {
      net.start_flow("f", u::gb(1), {link}, [] {});
    }
    s.run();
  }
  state.SetItemsProcessed(state.iterations() * flows);
}
BENCHMARK(BM_MaxMinFairReallocation)->Arg(4)->Arg(16)->Arg(64);

// Staggered flows over independent per-GPU arrays: the incremental policy
// re-rates only the touched array's contention domain on each start and
// completion, while the full reference re-rates every flow in the network.
static void BM_ReallocationShardedArrays(benchmark::State& state) {
  const int flows = static_cast<int>(state.range(0));
  const bool incremental = state.range(1) != 0;
  constexpr int kArrays = 8;
  for (auto _ : state) {
    sim::Simulator s;
    sim::BandwidthNetwork net(
        s, incremental ? sim::BandwidthNetwork::RefillPolicy::incremental
                       : sim::BandwidthNetwork::RefillPolicy::full);
    std::vector<sim::BandwidthNetwork::ResourceId> links;
    links.reserve(kArrays);
    for (int a = 0; a < kArrays; ++a) {
      links.push_back(net.add_resource("array", u::gbps(25)));
    }
    for (int i = 0; i < flows; ++i) {
      s.schedule_at(i * 1e-4, [&net, &links, i] {
        net.start_flow("f", u::gb(1) + i * 1000, {links[i % kArrays]}, [] {});
      });
    }
    s.run();
  }
  state.SetItemsProcessed(state.iterations() * flows);
}
BENCHMARK(BM_ReallocationShardedArrays)
    ->Args({128, 1})
    ->Args({128, 0})
    ->Args({512, 1})
    ->Args({512, 0});

// A same-instant burst of flow starts coalesces into one filling pass (the
// offloader's store pool issues exactly this pattern at step boundaries).
static void BM_ReallocationCoalescedBurst(benchmark::State& state) {
  const int flows = static_cast<int>(state.range(0));
  std::uint64_t passes = 0;
  for (auto _ : state) {
    sim::Simulator s;
    sim::BandwidthNetwork net(s);
    auto link = net.add_resource("link", u::gbps(100));
    for (int i = 0; i < flows; ++i) {
      net.start_flow("f", u::gb(1) + i * 1000, {link}, [] {});
    }
    s.run();
    passes = net.filling_passes();
  }
  state.SetItemsProcessed(state.iterations() * flows);
  state.counters["passes"] = static_cast<double>(passes);
}
BENCHMARK(BM_ReallocationCoalescedBurst)->Arg(64)->Arg(256);

// Dispatch overhead of the OS-thread sweep runner on trivial points; real
// sweep points are whole simulations, so this bounds the harness tax.
static void BM_SweepRunnerDispatch(benchmark::State& state) {
  ssdtrain::sweep::SweepRunner runner(
      static_cast<std::size_t>(state.range(0)));
  std::vector<int> items(256);
  for (auto _ : state) {
    auto out = runner.map(items, [](int v) { return v + 1; });
    benchmark::DoNotOptimize(out);
  }
  state.SetItemsProcessed(state.iterations() * 256);
}
BENCHMARK(BM_SweepRunnerDispatch)->Arg(1)->Arg(4);

static void BM_TensorCachePackUnpack(benchmark::State& state) {
  // The bench never retires scopes, so silence the step-boundary warning.
  u::set_log_level(u::LogLevel::error);
  hw::TrainingNode node(hw::catalog::single_gpu_node(2));
  t::TensorFactory factory(*node.gpu(0).allocator);
  core::Offloader offloader(node, factory,
                           std::make_unique<core::SsdTier>(node, 0));
  core::TensorCacheConfig cfg;
  cfg.offload_budget = 0;  // keep path: measures pure bookkeeping cost
  core::TensorCache cache(node.simulator(), offloader, cfg);
  for (auto _ : state) {
    auto x = factory.cuda("x", {1 << 20}, t::DType::fp16,
                          hw::MemoryTag::activation);
    auto packed = cache.hooks().pack(x);
    auto back = cache.hooks().unpack(packed);
    benchmark::DoNotOptimize(back);
    cache.on_step_begin();
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TensorCachePackUnpack);

static void BM_GetIdAssignment(benchmark::State& state) {
  hw::DeviceAllocator alloc(u::gib(4));
  t::TensorFactory factory(alloc);
  t::IdAssigner ids;
  auto x = factory.cuda("x", {1 << 20}, t::DType::fp16,
                        hw::MemoryTag::activation);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ids.get_id(x));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_GetIdAssignment);

BENCHMARK_MAIN();
