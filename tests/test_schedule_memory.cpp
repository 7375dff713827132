// Schedule-vs-memory interactions: GPipe keeps every micro-batch's
// activations alive until its backward, while 1F1B bounds the in-flight
// count — the activation-pressure argument behind the paper's pipeline
// discussion (§IV-D). Also covers unfused-attention training end to end
// (the pre-FlashAttention configuration selective checkpointing targeted).

#include <gtest/gtest.h>

#include "ssdtrain/modules/model.hpp"
#include "ssdtrain/runtime/session.hpp"
#include "ssdtrain/sched/schedule.hpp"
#include "ssdtrain/util/units.hpp"

#include "test_support.hpp"

namespace rt = ssdtrain::runtime;
namespace m = ssdtrain::modules;
namespace sched = ssdtrain::sched;
namespace u = ssdtrain::util;

namespace {

// The schedule alone makes the session's executor run one stage's command
// stream; TrainingSession itself rejects pipeline_parallel > 1.
rt::StepStats run_schedule(const std::vector<sched::Command>& schedule,
                           rt::Strategy strategy) {
  rt::SessionConfig config;
  config.model = m::bert_config(4096, 2, 4);
  config.parallel.tensor_parallel = 2;
  config.strategy = strategy;
  rt::TrainingSession session(std::move(config));
  ssdtrain::testing::trace_schedule_step(session, schedule);
  return ssdtrain::testing::trace_schedule_step(session, schedule);
}

}  // namespace

TEST(ScheduleMemory, GPipeHoldsMoreActivationsThan1F1B) {
  constexpr int kMicroBatches = 6;
  // Stage 1 of 4: 1F1B bounds in-flight micro-batches at 3; GPipe holds
  // all 6 before the first backward.
  const auto gpipe = run_schedule(
      sched::schedule_gpipe(kMicroBatches, 4, 1), rt::Strategy::keep_in_gpu);
  const auto f1b1 = run_schedule(
      sched::schedule_1f1b(kMicroBatches, 4, 1), rt::Strategy::keep_in_gpu);
  EXPECT_GT(static_cast<double>(gpipe.activation_peak),
            1.5 * static_cast<double>(f1b1.activation_peak));
  // Same total work either way.
  EXPECT_NEAR(gpipe.algorithmic_flops, f1b1.algorithmic_flops,
              f1b1.algorithmic_flops * 0.01);
}

TEST(ScheduleMemory, SsdTrainTamesGPipePressure) {
  constexpr int kMicroBatches = 6;
  const auto keep = run_schedule(
      sched::schedule_gpipe(kMicroBatches, 4, 1), rt::Strategy::keep_in_gpu);
  const auto ssd = run_schedule(
      sched::schedule_gpipe(kMicroBatches, 4, 1), rt::Strategy::ssdtrain);
  // The all-forwards burst keeps every micro-batch's activations alive
  // until its backward; offloading within the planner's I/O window still
  // cuts that peak without stretching the step.
  EXPECT_LT(static_cast<double>(ssd.activation_peak),
            0.90 * static_cast<double>(keep.activation_peak));
  EXPECT_NEAR(ssd.step_time, keep.step_time, keep.step_time * 0.03);
}

TEST(ScheduleMemory, KeepLastModuleOnlyWhenBackwardIsImmediate) {
  // In 1F1B warm-up forwards, backward does NOT follow immediately, so the
  // keep-last-module hint must not fire for those micro-batches.
  const auto schedule = sched::schedule_1f1b(4, 4, 0);
  ASSERT_EQ(schedule[0].kind, sched::CommandKind::forward);
  EXPECT_FALSE(sched::backward_follows_immediately(schedule, 0));
  const auto stats = run_schedule(schedule, rt::Strategy::ssdtrain);
  EXPECT_GT(stats.offloaded_bytes, 0);
}

TEST(ScheduleMemory, UnfusedAttentionTrainsAndOffloadsMore) {
  rt::SessionConfig flash_cfg, unfused_cfg;
  flash_cfg.model = m::bert_config(4096, 2, 8);
  unfused_cfg.model = m::bert_config(4096, 2, 8);
  unfused_cfg.model.flash_attention = false;
  flash_cfg.parallel.tensor_parallel =
      unfused_cfg.parallel.tensor_parallel = 2;
  flash_cfg.strategy = unfused_cfg.strategy = rt::Strategy::ssdtrain;

  rt::TrainingSession flash(std::move(flash_cfg));
  flash.run_step();
  const auto f = flash.run_step();
  rt::TrainingSession unfused(std::move(unfused_cfg));
  unfused.run_step();
  const auto uf = unfused.run_step();

  // The unfused path materialises and offloads the 5*a*s^2*b/t softmax
  // intermediates that flash attention eliminates (paper §IV-C).
  EXPECT_GT(uf.offloaded_bytes, f.offloaded_bytes);
  EXPECT_GT(uf.step_time, f.step_time);
  EXPECT_LT(uf.drain_time, uf.step_time * 0.05);
}
