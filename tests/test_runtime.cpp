// Integration tests: full training steps through the executor on the
// simulated Table II machine, asserting the paper's claims — full I/O
// overlap (step time parity with the keep-everything baseline), substantial
// activation-peak reduction, recompute's throughput/memory trade-off, SSD
// hygiene (extents trimmed, WAF ~1), and ablation behaviour.

#include <gtest/gtest.h>

#include <string>

#include "ssdtrain/hw/catalog.hpp"
#include "ssdtrain/modules/model.hpp"
#include "ssdtrain/runtime/session.hpp"
#include "ssdtrain/util/check.hpp"
#include "ssdtrain/util/pool.hpp"
#include "ssdtrain/util/units.hpp"

namespace rt = ssdtrain::runtime;
namespace m = ssdtrain::modules;
namespace hw = ssdtrain::hw;
namespace u = ssdtrain::util;

namespace {

rt::SessionConfig base_config(rt::Strategy strategy,
                              std::int64_t hidden = 8192, int layers = 3,
                              std::int64_t batch = 8) {
  rt::SessionConfig config;
  config.model = m::bert_config(hidden, layers, batch);
  config.parallel.tensor_parallel = 2;
  config.strategy = strategy;
  return config;
}

rt::StepStats run_one(rt::SessionConfig config) {
  rt::TrainingSession session(std::move(config));
  session.run_step();  // warm-up: builds weights, stamps ids
  return session.run_step();
}

}  // namespace

TEST(Integration, SsdTrainMatchesBaselineStepTime) {
  const auto keep = run_one(base_config(rt::Strategy::keep_in_gpu));
  const auto ssd = run_one(base_config(rt::Strategy::ssdtrain));
  // "SSDTrain perfectly overlaps the I/O with the computation and incurs
  // negligible overhead."
  EXPECT_NEAR(ssd.step_time, keep.step_time, keep.step_time * 0.02);
  EXPECT_NEAR(ssd.model_throughput, keep.model_throughput,
              keep.model_throughput * 0.02);
}

TEST(Integration, SsdTrainReducesActivationPeak) {
  const auto keep = run_one(base_config(rt::Strategy::keep_in_gpu));
  const auto ssd = run_one(base_config(rt::Strategy::ssdtrain));
  const double reduction =
      1.0 - static_cast<double>(ssd.activation_peak) /
                static_cast<double>(keep.activation_peak);
  // Paper band for the Fig. 6 configurations: 28%-47%.
  EXPECT_GT(reduction, 0.25);
  EXPECT_LT(reduction, 0.60);
}

TEST(Integration, OffloadedAmountNearAnalyticEstimate) {
  // Table III: measured offloaded bytes track the closed-form estimate.
  auto config = base_config(rt::Strategy::ssdtrain);
  rt::TrainingSession session(config);
  session.run_step();
  const auto stats = session.run_step();
  ASSERT_TRUE(session.plan().has_value());
  const double measured = static_cast<double>(stats.offloaded_bytes);
  const double estimate =
      static_cast<double>(session.plan()->offloadable_bytes_per_step);
  EXPECT_NEAR(measured, estimate, estimate * 0.10);
}

TEST(Integration, TrailingIoDrainsQuickly) {
  const auto ssd = run_one(base_config(rt::Strategy::ssdtrain));
  // Full overlap means no meaningful I/O tail after the optimizer.
  EXPECT_LT(ssd.drain_time, ssd.step_time * 0.02);
}

TEST(Integration, RecomputeTradesThroughputForMemory) {
  const auto keep = run_one(base_config(rt::Strategy::keep_in_gpu));
  const auto rec = run_one(base_config(rt::Strategy::recompute_full));
  // Same algorithmic work, more executed work.
  EXPECT_NEAR(rec.algorithmic_flops, keep.algorithmic_flops,
              keep.algorithmic_flops * 0.01);
  EXPECT_GT(rec.executed_flops, rec.algorithmic_flops * 1.2);
  // Lower model throughput (the extra forward), smaller peak.
  EXPECT_LT(rec.model_throughput, keep.model_throughput * 0.85);
  EXPECT_LT(rec.activation_peak, keep.activation_peak);
}

TEST(Integration, SsdTrainBeatsRecomputeOnBothAxes) {
  // The ROK-curve headline: offloading achieves keep-level throughput at a
  // memory peak at or below recomputation's.
  const auto ssd = run_one(base_config(rt::Strategy::ssdtrain));
  const auto rec = run_one(base_config(rt::Strategy::recompute_full));
  EXPECT_GT(ssd.model_throughput, rec.model_throughput * 1.1);
}

TEST(Integration, HybridCheckpointOffloadIsTheMemoryMinimum) {
  // SSDTrain composed with activation checkpointing (Alg. 1's in-backward
  // branch): checkpoints go to SSD, rematerialised tensors stay in GPU.
  const auto rec = run_one(base_config(rt::Strategy::recompute_full));
  const auto hybrid = run_one(base_config(rt::Strategy::ssdtrain_recompute));
  // Same work profile as pure recomputation...
  EXPECT_NEAR(hybrid.algorithmic_flops, rec.algorithmic_flops,
              rec.algorithmic_flops * 0.01);
  EXPECT_NEAR(hybrid.step_time, rec.step_time, rec.step_time * 0.03);
  // ...but the checkpoints leave GPU memory: lowest peak of all
  // strategies.
  EXPECT_LT(hybrid.activation_peak, rec.activation_peak);
  EXPECT_GT(hybrid.offloaded_bytes, 0);
  // Rematerialised packs hit the in-backward keep branch.
  EXPECT_GT(hybrid.cache.kept_backward, 0u);
}

TEST(Integration, CpuOffloaderWorksOverPcie) {
  const auto keep = run_one(base_config(rt::Strategy::keep_in_gpu));
  const auto cpu = run_one(base_config(rt::Strategy::ssdtrain_cpu));
  EXPECT_NEAR(cpu.step_time, keep.step_time, keep.step_time * 0.05);
  EXPECT_GT(cpu.offloaded_bytes, 0);
  EXPECT_LT(cpu.activation_peak, keep.activation_peak);
}

TEST(Integration, SsdExtentsTrimmedAfterStep) {
  auto config = base_config(rt::Strategy::ssdtrain);
  rt::TrainingSession session(config);
  session.run_steps(3);
  // Every offloaded tensor was released after its backward use: no space
  // leaks on the array.
  EXPECT_EQ(session.node().array(config.gpu_index).live_bytes(), 0);
}

TEST(Integration, SequentialOffloadKeepsWafNearOne) {
  // §II-C: the offloading write pattern is endurance-friendly. After
  // several steps of writing and trimming multi-GB extents, the measured
  // FTL write amplification stays ~1.
  auto config = base_config(rt::Strategy::ssdtrain);
  rt::TrainingSession session(config);
  const auto steps = session.run_steps(4);
  EXPECT_LT(steps.back().ssd_write_amplification, 1.05);
  EXPECT_GT(steps.back().ssd_host_written, u::gb(1));
}

TEST(Integration, ForwardingAblationDoesNotBreakCorrectness) {
  auto with = base_config(rt::Strategy::ssdtrain);
  auto without = base_config(rt::Strategy::ssdtrain);
  without.forwarding = false;
  const auto s_with = run_one(std::move(with));
  const auto s_without = run_one(std::move(without));
  // Disabling forwarding can only serialise (equal or slower).
  EXPECT_GE(s_without.step_time, s_with.step_time * 0.999);
  EXPECT_GT(s_with.cache.forwards, 0u);
  EXPECT_EQ(s_without.cache.forwards, 0u);
}

TEST(Integration, BudgetOverrideLimitsOffloading) {
  auto limited = base_config(rt::Strategy::ssdtrain);
  limited.budget_override = u::gib(2);
  const auto s_limited = run_one(std::move(limited));
  const auto s_full = run_one(base_config(rt::Strategy::ssdtrain));
  EXPECT_LT(s_limited.offloaded_bytes, s_full.offloaded_bytes);
  EXPECT_LE(s_limited.offloaded_bytes, u::gib(2) + u::mib(64));
  EXPECT_GT(s_limited.activation_peak, s_full.activation_peak);
  EXPECT_GT(s_limited.cache.kept_budget, 0u);
}

TEST(Integration, GptAndT5AlsoBenefit) {
  for (const auto& model :
       {m::gpt_config(8192, 3, 8), m::t5_config(8192, 3, 8)}) {
    auto keep_cfg = base_config(rt::Strategy::keep_in_gpu);
    auto ssd_cfg = base_config(rt::Strategy::ssdtrain);
    keep_cfg.model = ssd_cfg.model = model;
    const auto keep = run_one(std::move(keep_cfg));
    const auto ssd = run_one(std::move(ssd_cfg));
    EXPECT_NEAR(ssd.step_time, keep.step_time, keep.step_time * 0.03);
    EXPECT_LT(ssd.activation_peak,
              static_cast<double>(keep.activation_peak) * 0.8);
  }
}

TEST(Integration, MoeAndGqaWorkloadsRunUnderEveryStrategy) {
  // The acceptance gate for the WorkloadSpec refactor: the new workloads
  // run end-to-end through TrainingSession under all five strategies.
  for (const auto& model :
       {m::gpt_moe_config(4096, 2, 4, /*num_experts=*/8, /*top_k=*/2),
        m::gpt_gqa_config(4096, 2, 4)}) {
    for (rt::Strategy strategy :
         {rt::Strategy::keep_in_gpu, rt::Strategy::ssdtrain,
          rt::Strategy::ssdtrain_cpu, rt::Strategy::recompute_full,
          rt::Strategy::ssdtrain_recompute}) {
      auto cfg = base_config(strategy);
      cfg.model = model;
      const auto stats = run_one(std::move(cfg));
      EXPECT_GT(stats.step_time, 0.0)
          << model.name << " / " << to_string(strategy);
      EXPECT_GT(stats.activation_peak, 0) << model.name;
    }
  }
}

TEST(Integration, MoeOffloadsMoreThanDenseGpt) {
  // Expert activations stress the offload path asymmetrically: with
  // top_k=2 the routed FFN stream roughly doubles, so the offloaded
  // volume must exceed the dense GPT baseline at the same shape.
  auto dense_cfg = base_config(rt::Strategy::ssdtrain);
  dense_cfg.model = m::gpt_config(8192, 3, 8);
  auto moe_cfg = base_config(rt::Strategy::ssdtrain);
  moe_cfg.model = m::gpt_moe_config(8192, 3, 8, 8, 2);
  const auto dense = run_one(std::move(dense_cfg));
  const auto moe = run_one(std::move(moe_cfg));
  EXPECT_GT(moe.offloaded_bytes, dense.offloaded_bytes);
}

TEST(Integration, GqaOffloadsLessThanDenseGpt) {
  // GQA shrinks the saved QKV planes, so the offloaded volume drops below
  // the MHA baseline at the same shape.
  auto dense_cfg = base_config(rt::Strategy::ssdtrain);
  dense_cfg.model = m::gpt_config(8192, 3, 8);
  auto gqa_cfg = base_config(rt::Strategy::ssdtrain);
  gqa_cfg.model = m::gpt_gqa_config(8192, 3, 8);
  const auto dense = run_one(std::move(dense_cfg));
  const auto gqa = run_one(std::move(gqa_cfg));
  EXPECT_LT(gqa.offloaded_bytes, dense.offloaded_bytes);
}

TEST(Integration, GradAccumulationRunsMultipleMicroBatches) {
  auto config = base_config(rt::Strategy::ssdtrain, 8192, 2, 4);
  config.micro_batches = 3;
  rt::TrainingSession session(std::move(config));
  session.run_step();
  const auto stats = session.run_step();
  // Three micro-batches' worth of activations flowed to the SSDs
  // (~0.8 GB offloadable per micro-batch for H8192 L2 B4 TP2).
  EXPECT_GT(stats.offloaded_bytes, u::gb(2));
  EXPECT_EQ(session.node().array(1).live_bytes(), 0);
}

TEST(Integration, StepTimeScalesWithMicroBatchCount) {
  auto one = base_config(rt::Strategy::ssdtrain, 8192, 2, 4);
  auto three = base_config(rt::Strategy::ssdtrain, 8192, 2, 4);
  three.micro_batches = 3;
  const auto s1 = run_one(std::move(one));
  const auto s3 = run_one(std::move(three));
  EXPECT_GT(s3.step_time, s1.step_time * 2.5);
  EXPECT_LT(s3.step_time, s1.step_time * 3.2);
}

TEST(Integration, LargerBatchDoesNotFitWithoutOffloadingButFitsWithIt) {
  // The paper's Fig. 7 point: SSDTrain admits batch sizes the baseline
  // cannot hold (its Fig. 7(b) omits the B16 no-offloading point for
  // H14336 because it overflows the 40 GB A100). Our simulated node lacks
  // the real framework's fixed memory overheads, so the crossover sits at
  // a somewhat larger batch.
  auto keep = base_config(rt::Strategy::keep_in_gpu, 14336, 3, 24);
  EXPECT_THROW(run_one(std::move(keep)), hw::OutOfDeviceMemory);
  auto ssd = base_config(rt::Strategy::ssdtrain, 14336, 3, 24);
  EXPECT_NO_THROW(run_one(std::move(ssd)));
}

// An offload step that overflows the GPU throws with store jobs still
// waiting on producer events that never fire. Destroying the session must
// free them: a waiting store job must not own the tensor whose storage owns
// the event it waits on. Every pooled completion and waiter is back once
// the session is gone.
TEST(Integration, OffloadStepThatThrowsFreesItsStoreJobs) {
  ssdtrain::util::SlabPool::Handle pool;
  {
    rt::TrainingSession session(
        base_config(rt::Strategy::ssdtrain, 14336, 6, 32));
    pool = session.node().simulator().pool();
    EXPECT_THROW(session.run_step(), hw::OutOfDeviceMemory);
  }
  EXPECT_EQ(pool->live(), 0u);
}

TEST(Integration, ComputeUtilizationStaysHigh) {
  const auto ssd = run_one(base_config(rt::Strategy::ssdtrain));
  // The GPU defines the critical path; SSDTrain's CPU-side logic must not
  // starve it (paper §IV-B).
  EXPECT_GT(ssd.compute_utilization, 0.95);
}

TEST(Integration, CacheCountersAreConsistent) {
  const auto ssd = run_one(base_config(rt::Strategy::ssdtrain));
  const auto& c = ssd.cache;
  EXPECT_EQ(c.offload_started,
            ssd.offloader_totals.stores);
  EXPECT_GT(c.dedup_hits, 0u);
  EXPECT_GE(c.packs,
            c.offload_started + c.kept_budget + c.kept_scope +
                c.passthrough_weight + c.passthrough_cpu +
                c.passthrough_small + c.dedup_hits);
  // Keep-last-module fired (backward follows forward immediately).
  EXPECT_GT(c.kept_scope, 0u);
}

TEST(Integration, ReplayedStepsKeepLastModuleAndTrimExtents) {
  // Steps 2+ replay the program the session recorded on step 1.
  // The scheduler-hint behaviours must carry over to the replay pipeline:
  // the keep-last-module rule fires every replayed step, prefetch keeps
  // issuing, and every SSD extent is trimmed after its backward use.
  auto config = base_config(rt::Strategy::ssdtrain);
  rt::TrainingSession session(config);
  const auto steps = session.run_steps(4);
  ASSERT_NE(session.program(), nullptr);
  EXPECT_TRUE(session.program()->replayable);

  // Cache counters are cumulative; the per-step deltas of the replayed
  // steps must match each other and stay active.
  for (std::size_t i = 2; i < steps.size(); ++i) {
    const auto& prev = steps[i - 1].cache;
    const auto& cur = steps[i].cache;
    EXPECT_EQ(cur.kept_scope - prev.kept_scope,
              steps[1].cache.kept_scope - steps[0].cache.kept_scope);
    EXPECT_GT(cur.kept_scope, prev.kept_scope);
    EXPECT_GT(cur.prefetch_loads, prev.prefetch_loads);
    EXPECT_EQ(cur.releases - prev.releases,
              steps[1].cache.releases - steps[0].cache.releases);
  }
  // Eviction hygiene under replay: no space leaks on the array.
  EXPECT_EQ(session.node().array(config.gpu_index).live_bytes(), 0);
}

TEST(Integration, ReplayDisabledSessionMatchesReplayEnabledExactly) {
  // The ablation switch: --no-replay must be a pure A/B toggle.
  auto with = base_config(rt::Strategy::ssdtrain);
  auto without = base_config(rt::Strategy::ssdtrain);
  without.use_replay = false;
  rt::TrainingSession a(std::move(with));
  rt::TrainingSession b(std::move(without));
  for (int i = 0; i < 3; ++i) {
    const auto sa = a.run_step();
    const auto sb = b.run_step();
    EXPECT_EQ(sa.step_time, sb.step_time);
    EXPECT_EQ(sa.activation_peak, sb.activation_peak);
    EXPECT_EQ(sa.offloaded_bytes, sb.offloaded_bytes);
  }
  EXPECT_NE(a.program(), nullptr);
  EXPECT_EQ(b.program(), nullptr);
}

TEST(Integration, PipelineParallelIsRejectedInFavourOfClusterSession) {
  // The session runs every layer on one GPU, so a pipeline degree could
  // only shrink the planner's budget (it divides offloadable bytes by pp)
  // without slicing the model. Pipelines belong to ClusterSession.
  auto config = base_config(rt::Strategy::ssdtrain);
  config.parallel.pipeline_parallel = 4;
  try {
    rt::TrainingSession session(std::move(config));
    ADD_FAILURE() << "pipeline_parallel = 4 was accepted";
  } catch (const u::ContractViolation& e) {
    EXPECT_NE(std::string(e.what()).find("ClusterSession"),
              std::string::npos)
        << e.what();
  }
}
