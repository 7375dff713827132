// Step-graph record/replay equivalence: a session that records its first
// step and replays the compact StepProgram afterwards must be *bit
// identical* to a session tracing the module tree every step — same
// StepStats field for field (times, peaks, flops, cache and offloader
// counters), same number of simulator events — across the model grid
// (BERT/GPT/T5/MoE/GQA) under all five strategies, gradient accumulation,
// and the forwarding/budget ablations.

#include <gtest/gtest.h>

#include <vector>

#include "ssdtrain/modules/model.hpp"
#include "ssdtrain/runtime/session.hpp"
#include "ssdtrain/util/units.hpp"

namespace rt = ssdtrain::runtime;
namespace m = ssdtrain::modules;
namespace u = ssdtrain::util;

namespace {

constexpr int kSteps = 3;  // record + two replays

rt::SessionConfig small_config(m::ModelConfig model, rt::Strategy strategy) {
  rt::SessionConfig config;
  config.model = std::move(model);
  config.parallel.tensor_parallel = 2;
  config.strategy = strategy;
  return config;
}

void expect_equal(const rt::StepStats& a, const rt::StepStats& b,
                  const std::string& what) {
  SCOPED_TRACE(what);
  EXPECT_EQ(a.step_time, b.step_time);
  EXPECT_EQ(a.drain_time, b.drain_time);
  EXPECT_EQ(a.optimizer_time, b.optimizer_time);
  EXPECT_EQ(a.activation_peak, b.activation_peak);
  EXPECT_EQ(a.total_peak, b.total_peak);
  EXPECT_EQ(a.weights_live, b.weights_live);
  EXPECT_EQ(a.algorithmic_flops, b.algorithmic_flops);
  EXPECT_EQ(a.executed_flops, b.executed_flops);
  EXPECT_EQ(a.model_throughput, b.model_throughput);
  EXPECT_EQ(a.compute_busy, b.compute_busy);
  EXPECT_EQ(a.compute_utilization, b.compute_utilization);
  EXPECT_EQ(a.offloaded_bytes, b.offloaded_bytes);
  EXPECT_EQ(a.loaded_bytes, b.loaded_bytes);
  EXPECT_EQ(a.ssd_host_written, b.ssd_host_written);
  EXPECT_EQ(a.ssd_write_amplification, b.ssd_write_amplification);
  EXPECT_EQ(a.required_write_bandwidth, b.required_write_bandwidth);

  EXPECT_EQ(a.cache.packs, b.cache.packs);
  EXPECT_EQ(a.cache.unpacks, b.cache.unpacks);
  EXPECT_EQ(a.cache.passthrough_weight, b.cache.passthrough_weight);
  EXPECT_EQ(a.cache.passthrough_cpu, b.cache.passthrough_cpu);
  EXPECT_EQ(a.cache.passthrough_small, b.cache.passthrough_small);
  EXPECT_EQ(a.cache.dedup_hits, b.cache.dedup_hits);
  EXPECT_EQ(a.cache.offload_started, b.cache.offload_started);
  EXPECT_EQ(a.cache.kept_budget, b.cache.kept_budget);
  EXPECT_EQ(a.cache.kept_backward, b.cache.kept_backward);
  EXPECT_EQ(a.cache.kept_scope, b.cache.kept_scope);
  EXPECT_EQ(a.cache.kept_offloader_refused, b.cache.kept_offloader_refused);
  EXPECT_EQ(a.cache.forwards, b.cache.forwards);
  EXPECT_EQ(a.cache.prefetch_loads, b.cache.prefetch_loads);
  EXPECT_EQ(a.cache.miss_loads, b.cache.miss_loads);
  EXPECT_EQ(a.cache.wasted_stores, b.cache.wasted_stores);
  EXPECT_EQ(a.cache.releases, b.cache.releases);
  EXPECT_EQ(a.cache.offloaded_bytes, b.cache.offloaded_bytes);
  EXPECT_EQ(a.cache.kept_bytes, b.cache.kept_bytes);

  EXPECT_EQ(a.offloader_totals.stores, b.offloader_totals.stores);
  EXPECT_EQ(a.offloader_totals.loads, b.offloader_totals.loads);
  EXPECT_EQ(a.offloader_totals.bytes_stored, b.offloader_totals.bytes_stored);
  EXPECT_EQ(a.offloader_totals.bytes_loaded, b.offloader_totals.bytes_loaded);
  EXPECT_EQ(a.offloader_totals.releases, b.offloader_totals.releases);
  EXPECT_EQ(a.offloader_totals.failed_stores,
            b.offloader_totals.failed_stores);
}

/// Runs the same config through a trace-every-step session and a
/// record-then-replay session; every step's stats (and the simulators'
/// total event counts) must match exactly.
void expect_replay_equivalent(rt::SessionConfig config,
                              const std::string& what) {
  rt::SessionConfig traced_cfg = config;
  traced_cfg.use_replay = false;
  rt::SessionConfig replayed_cfg = std::move(config);
  replayed_cfg.use_replay = true;

  rt::TrainingSession traced(std::move(traced_cfg));
  rt::TrainingSession replayed(std::move(replayed_cfg));
  for (int step = 0; step < kSteps; ++step) {
    const auto a = traced.run_step();
    const auto b = replayed.run_step();
    expect_equal(a, b, what + " step " + std::to_string(step));
  }
  // The replay pipeline must actually have engaged (a silently discarded
  // program would make this test vacuous).
  ASSERT_NE(replayed.program(), nullptr) << what;
  EXPECT_TRUE(replayed.program()->replayable) << what;
  EXPECT_GT(replayed.program()->ops.size(), 0u) << what;
  // Identical command streams drive identical event streams.
  EXPECT_EQ(traced.node().simulator().events_executed(),
            replayed.node().simulator().events_executed())
      << what;
}

std::vector<m::ModelConfig> model_grid() {
  return {
      m::bert_config(2048, 2, 2),
      m::gpt_config(2048, 2, 2),
      m::t5_config(2048, 2, 2),
      m::gpt_moe_config(2048, 2, 2, /*num_experts=*/4, /*top_k=*/2),
      m::gpt_gqa_config(2048, 2, 2),
  };
}

std::vector<rt::Strategy> all_strategies() {
  return {rt::Strategy::keep_in_gpu, rt::Strategy::ssdtrain,
          rt::Strategy::ssdtrain_cpu, rt::Strategy::recompute_full,
          rt::Strategy::ssdtrain_recompute};
}

}  // namespace

TEST(ReplayEquivalence, ModelGridUnderEveryStrategy) {
  for (const auto& model : model_grid()) {
    for (rt::Strategy strategy : all_strategies()) {
      expect_replay_equivalent(
          small_config(model, strategy),
          model.name + " / " + std::string(to_string(strategy)));
    }
  }
}

TEST(ReplayEquivalence, PaperScaleSsdOffload) {
  // One paper-sized point (Table III's smallest config) so the property
  // holds where the real bandwidth pressure and prefetch traffic live.
  auto config = small_config(m::bert_config(8192, 2, 8),
                             rt::Strategy::ssdtrain);
  expect_replay_equivalent(std::move(config), "BERT H8192 ssdtrain");
}

TEST(ReplayEquivalence, GradientAccumulationSchedules) {
  for (int micro_batches : {2, 3}) {
    auto config = small_config(m::gpt_config(2048, 2, 2),
                               rt::Strategy::ssdtrain);
    config.micro_batches = micro_batches;
    expect_replay_equivalent(
        std::move(config),
        "GPT grad-accum mb=" + std::to_string(micro_batches));
  }
}

TEST(ReplayEquivalence, ForwardingAblation) {
  auto config = small_config(m::bert_config(2048, 2, 2),
                             rt::Strategy::ssdtrain);
  config.forwarding = false;
  expect_replay_equivalent(std::move(config), "forwarding off");
}

TEST(ReplayEquivalence, BudgetOverride) {
  auto config = small_config(m::bert_config(8192, 2, 8),
                             rt::Strategy::ssdtrain);
  config.budget_override = u::gib(1);
  expect_replay_equivalent(std::move(config), "budget 1 GiB");
}

TEST(ReplayEquivalence, NoGdsBouncePath) {
  auto config = small_config(m::bert_config(2048, 2, 2),
                             rt::Strategy::ssdtrain);
  config.use_gds = false;
  expect_replay_equivalent(std::move(config), "bounce path");
}

TEST(Replay, ProgramRejectsChangedSchedule) {
  auto config = small_config(m::bert_config(2048, 2, 2),
                             rt::Strategy::keep_in_gpu);
  rt::TrainingSession session(std::move(config));
  session.run_steps(2);
  ASSERT_NE(session.program(), nullptr);
  const auto other_schedule = ssdtrain::sched::grad_accum_schedule(2);
  EXPECT_THROW(session.executor().begin_replay_step(*session.program(),
                                                    other_schedule),
               ssdtrain::util::ContractViolation);
}

TEST(Replay, SessionWithReplayDisabledNeverRecords) {
  auto config = small_config(m::bert_config(2048, 2, 2),
                             rt::Strategy::ssdtrain);
  config.use_replay = false;
  rt::TrainingSession session(std::move(config));
  session.run_steps(2);
  EXPECT_EQ(session.program(), nullptr);
}
