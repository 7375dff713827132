// Table I of the paper, as executable properties. The paper contrasts
// SSDTrain with FlexGen, LLM-in-a-Flash, and ZeRO-Infinity on five axes:
// training support, activation offloading to main memory / to SSD, a
// direct GPU-SSD data path, asynchronous transfers, and interoperability.
// Each feature is asserted against the running system rather than claimed.

#include <gtest/gtest.h>

#include "ssdtrain/hw/catalog.hpp"
#include "ssdtrain/modules/model.hpp"
#include "ssdtrain/runtime/session.hpp"
#include "ssdtrain/sched/schedule.hpp"
#include "ssdtrain/util/units.hpp"

#include "test_support.hpp"

namespace rt = ssdtrain::runtime;
namespace m = ssdtrain::modules;
namespace hw = ssdtrain::hw;
namespace u = ssdtrain::util;

namespace {

rt::SessionConfig config_for(rt::Strategy strategy) {
  rt::SessionConfig config;
  config.model = m::bert_config(8192, 3, 8);
  config.parallel.tensor_parallel = 2;
  config.strategy = strategy;
  return config;
}

}  // namespace

TEST(FeatureMatrix, TrainingSupported) {
  // Unlike the inference-only systems in Table I, backward propagation
  // consumes the offloaded tensors: loads happen and gradients flow.
  rt::TrainingSession session(config_for(rt::Strategy::ssdtrain));
  session.run_step();
  const auto stats = session.run_step();
  EXPECT_GT(stats.cache.prefetch_loads + stats.cache.miss_loads, 0u);
  EXPECT_GT(stats.offloader_totals.bytes_loaded, 0);
  EXPECT_GT(stats.algorithmic_flops, 0.0);
}

TEST(FeatureMatrix, ActivationOffloadingToSsd) {
  rt::TrainingSession session(config_for(rt::Strategy::ssdtrain));
  session.run_step();
  const auto stats = session.run_step();
  EXPECT_GT(stats.ssd_host_written, u::gb(1));
}

TEST(FeatureMatrix, ActivationOffloadingToMainMemory) {
  // ZeRO-Infinity offloads *checkpoints* only; SSDTrain's CPU offloader
  // targets activations proper.
  rt::TrainingSession session(config_for(rt::Strategy::ssdtrain_cpu));
  session.run_step();
  const auto stats = session.run_step();
  EXPECT_GT(stats.offloaded_bytes, u::gb(1));
  EXPECT_GT(session.node().pinned_pool().peak_used(), 0);
}

TEST(FeatureMatrix, DirectGpuSsdPathSkipsHostMemory) {
  auto config = config_for(rt::Strategy::ssdtrain);
  rt::TrainingSession session(std::move(config));
  session.run_steps(2);
  auto& node = session.node();
  // With GDS, not one byte of activation traffic crossed host DRAM.
  EXPECT_DOUBLE_EQ(node.network().resource_delivered(node.dram_resource()),
                   0.0);
  EXPECT_DOUBLE_EQ(
      node.network().resource_delivered(node.dram_bounce_resource()), 0.0);
}

TEST(FeatureMatrix, BouncePathDoesCrossHostMemory) {
  auto config = config_for(rt::Strategy::ssdtrain);
  config.use_gds = false;
  rt::TrainingSession session(std::move(config));
  session.run_steps(2);
  auto& node = session.node();
  EXPECT_GT(node.network().resource_delivered(node.dram_bounce_resource()),
            0.0);
}

TEST(FeatureMatrix, TransfersAreAsynchronous) {
  // Existing systems block training on loads or synchronise per layer;
  // SSDTrain hides the I/O. Evidence: the compute stream is busy
  // essentially the whole step even though gigabytes moved.
  rt::TrainingSession session(config_for(rt::Strategy::ssdtrain));
  session.run_step();
  const auto stats = session.run_step();
  EXPECT_GT(stats.offloaded_bytes, u::gb(1));
  EXPECT_GT(stats.compute_utilization, 0.95);
}

TEST(FeatureMatrix, InteroperabilityHooksAreRemovable) {
  // SSDTrain installs via hooks and monkey-patched scheduler hints — no
  // module internals are modified. The same model object trains with and
  // without the cache.
  auto model = m::build_model(m::bert_config(4096, 2, 4));
  std::size_t hooks_before = 0;
  model->visit_modules(
      [&](m::Module& mod) { hooks_before += mod.hook_count(); });
  EXPECT_EQ(hooks_before, 0u);

  hw::TrainingNode node(hw::catalog::single_gpu_node(2));
  ssdtrain::tensor::TensorFactory factory(*node.gpu(0).allocator);
  ssdtrain::core::Offloader offloader(
      node, factory, std::make_unique<ssdtrain::core::SsdTier>(node, 0));
  ssdtrain::core::TensorCache cache(node.simulator(), offloader, {});
  cache.install_hooks(*model);

  std::size_t hooks_after = 0;
  model->visit_modules(
      [&](m::Module& mod) { hooks_after += mod.hook_count(); });
  // Four hooks per module (forward pre/post, backward pre/post).
  EXPECT_GT(hooks_after, hooks_before);
  std::size_t modules = 0;
  model->visit_modules([&](m::Module&) { ++modules; });
  EXPECT_EQ(hooks_after, modules * 4);
}

TEST(FeatureMatrix, InteroperabilityWithPipelineSchedules) {
  // The cache keeps per-micro-batch records, so 1F1B's interleaved
  // forward/backward pattern (several micro-batches in flight) works.
  // The schedule alone makes the executor run one stage's command stream;
  // TrainingSession itself rejects pipeline_parallel > 1.
  auto config = config_for(rt::Strategy::ssdtrain);
  config.model = m::bert_config(4096, 2, 4);
  rt::TrainingSession session(std::move(config));
  const auto schedule = ssdtrain::sched::schedule_1f1b(8, 4, 1);
  EXPECT_EQ(ssdtrain::sched::peak_in_flight_micro_batches(schedule), 3);
  ssdtrain::testing::trace_schedule_step(session, schedule);
  const auto stats = ssdtrain::testing::trace_schedule_step(session, schedule);
  EXPECT_GT(stats.offloaded_bytes, 0);
  // All records drained: nothing leaked across the step boundary.
  EXPECT_EQ(session.cache()->tracked_entries(), 0u);
  EXPECT_EQ(session.node().array(1).live_bytes(), 0);
}
