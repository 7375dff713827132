// Fault injection and resilience: the --faults grammar, injector windows
// (exact capacity restore), offload retry/backoff/timeout accounting, the
// degradation ladder (keep-on-GPU after a permanently failed store,
// recompute fallback after data loss), program-invalidation semantics
// (timing faults never invalidate a recorded StepProgram, structural
// faults force a re-trace), and seeded determinism: identical fault seeds
// give bit-identical StepStats and fault logs, on the trace path and the
// replay path alike, across the model grid under every strategy.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "ssdtrain/core/offloader.hpp"
#include "ssdtrain/fault/fault.hpp"
#include "ssdtrain/fault/injector.hpp"
#include "ssdtrain/hw/catalog.hpp"
#include "ssdtrain/modules/model.hpp"
#include "ssdtrain/runtime/cluster_session.hpp"
#include "ssdtrain/runtime/session.hpp"
#include "ssdtrain/sched/schedule.hpp"
#include "ssdtrain/tensor/tensor_id.hpp"
#include "ssdtrain/trace/chrome_trace.hpp"
#include "ssdtrain/util/check.hpp"
#include "ssdtrain/util/units.hpp"
#include "test_support.hpp"

namespace core = ssdtrain::core;
namespace f = ssdtrain::fault;
namespace hw = ssdtrain::hw;
namespace m = ssdtrain::modules;
namespace rt = ssdtrain::runtime;
namespace t = ssdtrain::tensor;
namespace sim = ssdtrain::sim;
namespace u = ssdtrain::util;

using ssdtrain::IoError;
using ssdtrain::IoErrorCode;
using ssdtrain::testing::TierKind;

namespace {

// ---------------------------------------------------------------------------
// Grammar

TEST(FaultGrammar, ParsesKeyedSpecs) {
  const auto specs = f::parse_faults(
      "io-error:rate=0.01;"
      "ssd-derate:gpu=0,at=0.5,dur=0.2,factor=0.25;"
      "ssd-dropout:gpu=1,member=2,at=1.5;"
      "gpu-straggler:factor=1.5,at=0.1,dur=0.3;"
      "ssd-latency:latency=0.0002");
  ASSERT_EQ(specs.size(), 5u);
  EXPECT_EQ(specs[0].kind, f::FaultKind::io_error);
  EXPECT_EQ(specs[0].rate, 0.01);
  EXPECT_EQ(specs[0].gpu, -1);
  EXPECT_EQ(specs[0].duration, f::FaultSpec::open_ended);
  EXPECT_EQ(specs[1].kind, f::FaultKind::ssd_derate);
  EXPECT_EQ(specs[1].gpu, 0);
  EXPECT_EQ(specs[1].at, 0.5);
  EXPECT_EQ(specs[1].duration, 0.2);
  EXPECT_EQ(specs[1].factor, 0.25);
  EXPECT_EQ(specs[2].kind, f::FaultKind::ssd_dropout);
  EXPECT_EQ(specs[2].member, 2);
  EXPECT_EQ(specs[3].kind, f::FaultKind::gpu_straggler);
  EXPECT_EQ(specs[3].factor, 1.5);
  EXPECT_EQ(specs[4].kind, f::FaultKind::ssd_latency);
  EXPECT_EQ(specs[4].latency, 0.0002);
}

TEST(FaultGrammar, RoundTripsThroughToText) {
  const auto specs = f::parse_faults(
      "io-error:rate=0.01;"
      "ssd-derate:gpu=0,at=0.5,dur=0.2,factor=0.25;"
      "pcie-derate:factor=0.5;"
      "nvlink-derate:gpu=2,factor=0.75,at=1;"
      "dp-derate:factor=0.9;"
      "ssd-dropout:gpu=1,member=2,at=1.5;"
      "gpu-straggler:factor=1.5,at=0.1,dur=0.3;"
      "stage-crash:gpu=0,at=2,dur=0.5;"
      "ssd-latency:latency=0.0002");
  for (const auto& spec : specs) {
    SCOPED_TRACE(spec.to_text());
    const auto reparsed = f::parse_faults(spec.to_text());
    ASSERT_EQ(reparsed.size(), 1u);
    EXPECT_EQ(reparsed[0].kind, spec.kind);
    EXPECT_EQ(reparsed[0].gpu, spec.gpu);
    EXPECT_EQ(reparsed[0].member, spec.member);
    EXPECT_EQ(reparsed[0].at, spec.at);
    EXPECT_EQ(reparsed[0].duration, spec.duration);
    EXPECT_EQ(reparsed[0].factor, spec.factor);
    EXPECT_EQ(reparsed[0].rate, spec.rate);
    EXPECT_EQ(reparsed[0].latency, spec.latency);
  }
}

TEST(FaultGrammar, EmptyTextMeansNoFaults) {
  // An empty --faults value (and stray separators) disable injection
  // rather than erroring: the CLI passes the flag through unconditionally.
  EXPECT_TRUE(f::parse_faults("").empty());
  EXPECT_TRUE(f::parse_faults(";").empty());
  EXPECT_EQ(f::parse_faults("io-error:rate=0.5;").size(), 1u);
}

TEST(FaultGrammar, MalformedSpecsAreContractViolations) {
  EXPECT_THROW((void)f::parse_faults("bogus-kind:rate=0.5"),
               u::ContractViolation);
  EXPECT_THROW((void)f::parse_faults("io-error:bogus=1"),
               u::ContractViolation);
  EXPECT_THROW((void)f::parse_faults("io-error:rate=2"),
               u::ContractViolation);
  EXPECT_THROW((void)f::parse_faults("io-error"), u::ContractViolation);
  EXPECT_THROW((void)f::parse_faults("ssd-derate:factor=1.5"),
               u::ContractViolation);
  EXPECT_THROW((void)f::parse_faults("gpu-straggler:factor=0.5"),
               u::ContractViolation);
  EXPECT_THROW((void)f::parse_faults("ssd-latency:latency=-1"),
               u::ContractViolation);
  EXPECT_THROW((void)f::parse_faults("stage-crash:at=1"),
               u::ContractViolation);  // needs a finite duration
  EXPECT_THROW((void)f::parse_faults("io-error:"), u::ContractViolation);
  EXPECT_THROW((void)f::parse_faults("io-error:rate"), u::ContractViolation);
}

TEST(CrashSchedule, MeanGapConvergesToMtbfAndArrivalsIncrease) {
  const double mtbf = 3.0;
  f::CrashSchedule schedule(mtbf);
  double prev = 0.0;
  int arrivals = 0;
  // Walk 1000 expected arrivals in coarse chunks; the low-discrepancy
  // phases should pin the count within a few per mille of the horizon.
  const double horizon = 1000.0 * mtbf;
  for (double now = 0.0; now < horizon; now += mtbf / 4.0) {
    if (schedule.consume(now) > 0) {
      // Consuming strictly advances the upcoming arrival past `now`.
      EXPECT_GT(schedule.next(), now);
      EXPECT_GT(schedule.next(), prev);
      prev = schedule.next();
      ++arrivals;
    }
  }
  EXPECT_NEAR(arrivals, 1000, 5);
}

TEST(CrashSchedule, DeterministicAcrossInstances) {
  f::CrashSchedule a(0.7);
  f::CrashSchedule b(0.7);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.next(), b.next());
    a.consume(a.next());
    b.consume(b.next());
  }
}

TEST(FaultGrammar, StageCrashLoseAndRecoverKeys) {
  // Defaults: a bare stage-crash is the historical free pause.
  const auto pause = f::parse_faults("stage-crash:gpu=0,at=1,dur=0.5");
  ASSERT_EQ(pause.size(), 1u);
  EXPECT_EQ(pause[0].lose, f::CrashLoss::none);
  EXPECT_EQ(pause[0].recover, f::CrashRecovery::unset);
  EXPECT_FALSE(pause[0].rolls_back());

  // lose=state demands rollback; the explicit recover key may confirm it.
  const auto destructive =
      f::parse_faults("stage-crash:gpu=1,at=2,dur=0.25,lose=state");
  ASSERT_EQ(destructive.size(), 1u);
  EXPECT_EQ(destructive[0].lose, f::CrashLoss::state);
  EXPECT_TRUE(destructive[0].rolls_back());
  const auto confirmed = f::parse_faults(
      "stage-crash:gpu=1,at=2,dur=0.25,lose=state,recover=rollback");
  ASSERT_EQ(confirmed.size(), 1u);
  EXPECT_TRUE(confirmed[0].rolls_back());
  const auto resume =
      f::parse_faults("stage-crash:at=1,dur=0.5,recover=resume");
  ASSERT_EQ(resume.size(), 1u);
  EXPECT_FALSE(resume[0].rolls_back());

  // to_text round-trips the loss mode.
  EXPECT_NE(destructive[0].to_text().find("lose=state"), std::string::npos);
  const auto reparsed = f::parse_faults(destructive[0].to_text());
  ASSERT_EQ(reparsed.size(), 1u);
  EXPECT_EQ(reparsed[0].lose, destructive[0].lose);
  EXPECT_EQ(reparsed[0].at, destructive[0].at);
  EXPECT_EQ(reparsed[0].duration, destructive[0].duration);
}

TEST(FaultGrammar, ContradictoryCrashSemanticsAreRejected) {
  // Resuming in place after the state was wiped is impossible...
  EXPECT_THROW((void)f::parse_faults(
                   "stage-crash:at=1,dur=0.5,lose=state,recover=resume"),
               u::ContractViolation);
  // ...and rolling back a crash that lost nothing wastes committed work.
  EXPECT_THROW((void)f::parse_faults(
                   "stage-crash:at=1,dur=0.5,lose=none,recover=rollback"),
               u::ContractViolation);
  // lose/recover are stage-crash-only keys.
  EXPECT_THROW((void)f::parse_faults("io-error:rate=0.1,lose=state"),
               u::ContractViolation);
  EXPECT_THROW((void)f::parse_faults(
                   "ssd-dropout:member=0,recover=rollback"),
               u::ContractViolation);
  // Unknown values for the new keys name the offending token.
  EXPECT_THROW((void)f::parse_faults("stage-crash:at=1,dur=0.5,lose=bogus"),
               u::ContractViolation);
  EXPECT_THROW(
      (void)f::parse_faults("stage-crash:at=1,dur=0.5,recover=bogus"),
      u::ContractViolation);
}

TEST(FaultGrammar, IoErrorSemantics) {
  EXPECT_FALSE(IoError{});
  EXPECT_TRUE(IoError{IoErrorCode::transient});
  EXPECT_TRUE(IoError{IoErrorCode::transient}.retryable());
  EXPECT_TRUE(IoError{IoErrorCode::timeout}.retryable());
  EXPECT_FALSE(IoError{IoErrorCode::data_lost}.retryable());
  EXPECT_TRUE(IoError{IoErrorCode::data_lost}.permanent());
  EXPECT_TRUE(IoError{IoErrorCode::device_lost}.permanent());
  EXPECT_FALSE(IoError{IoErrorCode::transient}.permanent());
}

// ---------------------------------------------------------------------------
// Injector windows

class FaultInjectorTest : public ::testing::Test {
 protected:
  FaultInjectorTest() : node_(hw::catalog::single_gpu_node(2)) {}

  f::FaultInjector& make_injector(std::vector<f::FaultSpec> specs,
                                  std::uint64_t seed = 1) {
    f::FaultConfig config;
    config.specs = std::move(specs);
    config.seed = seed;
    injector_ = std::make_unique<f::FaultInjector>(node_.simulator(),
                                                   std::move(config));
    injector_->bind_node(node_);
    return *injector_;
  }

  hw::TrainingNode node_;
  std::unique_ptr<f::FaultInjector> injector_;
};

TEST_F(FaultInjectorTest, DerateWindowRestoresExactCapacity) {
  auto& sim = node_.simulator();
  f::FaultSpec derate;
  derate.kind = f::FaultKind::ssd_derate;
  derate.at = 1.0;
  derate.duration = 1.0;
  derate.factor = 0.5;
  make_injector({derate});

  // The derate lands on the array's aggregate write channel in the
  // bandwidth network (nominal_write_bandwidth reports the healthy spec).
  auto& net = node_.network();
  const auto channel = node_.array(0).write_resource();
  const double base_write = net.capacity(channel);
  double mid_window = 0.0;
  double after_window = 0.0;
  sim.schedule_at(1.5, [&] { mid_window = net.capacity(channel); });
  sim.schedule_at(2.5, [&] { after_window = net.capacity(channel); });
  sim.run();
  EXPECT_EQ(mid_window, base_write * 0.5);
  // Window end must restore the base bit-for-bit, not approximately: the
  // no-fault replay-identity guarantee depends on exact 1.0 factors.
  EXPECT_EQ(after_window, base_write);
}

TEST_F(FaultInjectorTest, StragglerWindowScalesAndRestoresTimeScale) {
  auto& sim = node_.simulator();
  f::FaultSpec straggler;
  straggler.kind = f::FaultKind::gpu_straggler;
  straggler.at = 1.0;
  straggler.duration = 1.0;
  straggler.factor = 1.5;
  make_injector({straggler});

  double mid_window = 0.0;
  double after_window = 0.0;
  sim.schedule_at(1.5, [&] { mid_window = node_.gpu(0).gpu->time_scale(); });
  sim.schedule_at(2.5, [&] {
    after_window = node_.gpu(0).gpu->time_scale();
  });
  sim.run();
  EXPECT_EQ(mid_window, 1.5);
  EXPECT_EQ(after_window, 1.0);
}

TEST_F(FaultInjectorTest, IoAttemptDrawsOnlyInsideActiveWindows) {
  auto& sim = node_.simulator();
  f::FaultSpec errors;
  errors.kind = f::FaultKind::io_error;
  errors.rate = 1.0;
  errors.at = 1.0;
  errors.duration = 1.0;
  auto& injector = make_injector({errors});

  // Before the window: no failure and, crucially, no RNG consumption — the
  // draw sequence must track the I/O sequence, not wall-clock polling.
  EXPECT_FALSE(injector.io_attempt(0));
  std::vector<char> inside;
  sim.schedule_at(1.5, [&] {
    inside.push_back(injector.io_attempt(0) ? 1 : 0);
  });
  sim.schedule_at(2.5, [&] {
    inside.push_back(injector.io_attempt(0) ? 1 : 0);
  });
  sim.run();
  ASSERT_EQ(inside.size(), 2u);
  EXPECT_EQ(inside[0], 1);  // rate=1.0 inside the window always fails
  EXPECT_EQ(inside[1], 0);  // window over
}

TEST_F(FaultInjectorTest, DropoutBumpsStructuralEpochAndLogs) {
  auto& injector = make_injector({});
  EXPECT_EQ(injector.structural_epoch(), 0u);
  f::FaultSpec dropout;
  dropout.kind = f::FaultKind::ssd_dropout;
  dropout.gpu = 0;
  dropout.member = 0;
  injector.trigger(dropout);
  EXPECT_EQ(injector.structural_epoch(), 1u);
  EXPECT_TRUE(node_.array(0).member_failed(0));
  EXPECT_EQ(node_.array(0).surviving_members(), 1u);
  ASSERT_FALSE(injector.events().empty());
  EXPECT_EQ(injector.events().back().kind, f::FaultKind::ssd_dropout);

  // The last survivor is never dropped (total array loss is not modeled).
  f::FaultSpec again;
  again.kind = f::FaultKind::ssd_dropout;
  again.gpu = 0;
  again.member = 1;
  injector.trigger(again);
  EXPECT_EQ(node_.array(0).surviving_members(), 1u);
  EXPECT_EQ(injector.structural_epoch(), 1u);
}

TEST_F(FaultInjectorTest, NoTargetDropoutLogsWarningInsteadOfSilence) {
  auto& injector = make_injector({});
  f::FaultSpec dropout;
  dropout.kind = f::FaultKind::ssd_dropout;
  dropout.gpu = 99;  // matches nothing on a single-GPU node
  dropout.member = 0;
  injector.trigger(dropout);
  EXPECT_EQ(injector.structural_epoch(), 0u);
  EXPECT_EQ(node_.array(0).surviving_members(), 2u);
  ASSERT_FALSE(injector.events().empty());
  EXPECT_NE(injector.events().back().detail.find("fault matched no target"),
            std::string::npos);
}

TEST_F(FaultInjectorTest, NoTargetStageCrashLogsWarningInsteadOfSilence) {
  auto& injector = make_injector({});
  f::FaultSpec crash;
  crash.kind = f::FaultKind::stage_crash;
  crash.gpu = 99;
  crash.duration = 0.5;
  crash.lose = f::CrashLoss::state;
  injector.trigger(crash);
  EXPECT_EQ(injector.structural_epoch(), 0u);
  EXPECT_TRUE(injector.pending_crashes().empty());
  ASSERT_FALSE(injector.events().empty());
  EXPECT_NE(injector.events().back().detail.find("fault matched no target"),
            std::string::npos);
}

TEST_F(FaultInjectorTest, DestructiveCrashQueuesRecordWithoutEpochBump) {
  auto& injector = make_injector({});
  f::FaultSpec crash;
  crash.kind = f::FaultKind::stage_crash;
  crash.gpu = 0;
  crash.duration = 0.5;
  crash.lose = f::CrashLoss::state;
  injector.trigger(crash);

  // The recorded machine IS the restored machine: no structural epoch bump,
  // the StepProgram stays valid and the replayed steps stay bit-identical.
  EXPECT_EQ(injector.structural_epoch(), 0u);
  ASSERT_EQ(injector.pending_crashes().size(), 1u);
  EXPECT_EQ(injector.pending_crashes()[0].gpu, 0);
  EXPECT_EQ(injector.pending_crashes()[0].restart,
            injector.pending_crashes()[0].at + 0.5);

  const auto taken = injector.take_crashes();
  EXPECT_EQ(taken.size(), 1u);
  EXPECT_TRUE(injector.pending_crashes().empty());

  // A pause-only crash (lose=none) keeps the historical structural path.
  f::FaultSpec pause;
  pause.kind = f::FaultKind::stage_crash;
  pause.gpu = 0;
  pause.duration = 0.5;
  injector.trigger(pause);
  EXPECT_EQ(injector.structural_epoch(), 1u);
  EXPECT_TRUE(injector.pending_crashes().empty());
}

TEST_F(FaultInjectorTest, FaultEventsRenderOntoChromeTrace) {
  auto& sim = node_.simulator();
  f::FaultSpec derate;
  derate.kind = f::FaultKind::ssd_derate;
  derate.at = 0.5;
  derate.duration = 1.0;
  derate.factor = 0.5;
  auto& injector = make_injector({derate});
  sim.schedule_at(3.0, [] {});
  sim.run();

  ssdtrain::trace::ChromeTrace trace;
  f::append_fault_events(trace, injector.events(), sim.now());
  const std::string json = trace.to_json();
  EXPECT_NE(json.find("faults"), std::string::npos);
  EXPECT_NE(json.find("ssd-derate"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Offloader retry / backoff / degradation ladder

class FaultOffloaderTest : public ::testing::Test {
 protected:
  FaultOffloaderTest()
      : node_(hw::catalog::single_gpu_node(2)),
        factory_(*node_.gpu(0).allocator) {}

  f::FaultInjector& make_injector(std::vector<f::FaultSpec> specs,
                                  std::uint64_t seed = 1) {
    f::FaultConfig config;
    config.specs = std::move(specs);
    config.seed = seed;
    injector_ = std::make_unique<f::FaultInjector>(node_.simulator(),
                                                   std::move(config));
    injector_->bind_node(node_);
    return *injector_;
  }

  /// Executes the pending window-begin events (open-ended windows at t=0)
  /// so that I/O issued from test code observes an active window, the way
  /// session-driven I/O does.
  void settle() { node_.simulator().run(); }

  static f::FaultSpec always_fail() {
    f::FaultSpec errors;
    errors.kind = f::FaultKind::io_error;
    errors.rate = 1.0;
    return errors;  // open-ended from t=0: every attempt fails
  }

  t::Tensor make_tensor(const char* name, u::Bytes mib_size = 64) {
    return factory_.cuda(name, {u::mib(mib_size) / 2}, t::DType::fp16,
                         hw::MemoryTag::activation);
  }

  core::Offloader ssd_offloader(core::OffloaderConfig cfg) {
    return core::Offloader(node_, factory_,
                           std::make_unique<core::SsdTier>(node_, 0), cfg);
  }

  hw::TrainingNode node_;
  t::TensorFactory factory_;
  std::unique_ptr<f::FaultInjector> injector_;
  t::IdAssigner ids_;
};

/// Ladder cases that hold on either tier: the engine runs one retry ladder
/// for both.
class FaultOffloaderTierTest : public FaultOffloaderTest,
                               public ::testing::WithParamInterface<TierKind> {
 protected:
  core::Offloader offloader(core::OffloaderConfig cfg) {
    return core::Offloader(node_, factory_,
                           ssdtrain::testing::make_tier(GetParam(), node_),
                           cfg);
  }
};

INSTANTIATE_TEST_SUITE_P(
    Tiers, FaultOffloaderTierTest,
    ::testing::Values(TierKind::ssd, TierKind::host),
    [](const ::testing::TestParamInfo<TierKind>& info) {
      return ssdtrain::testing::to_string(info.param);
    });

TEST_P(FaultOffloaderTierTest, ExhaustedRetriesKeepCountersAndLoseData) {
  core::OffloaderConfig cfg;
  cfg.fault.injector = &make_injector({always_fail()});
  cfg.fault.max_attempts = 4;
  cfg.fault.initial_backoff = u::us(50);
  cfg.fault.backoff_multiplier = 2.0;
  core::Offloader off = offloader(cfg);
  settle();

  auto x = make_tensor("x");
  const auto id = ids_.get_id(x);
  auto done = off.store(id, x, nullptr);
  ASSERT_TRUE(done.has_value());
  node_.simulator().run();

  // All four attempts failed; three were retries with exponential backoff
  // 50us * (1 + 2 + 4).
  EXPECT_TRUE((*done)->done());  // store completes (as a failure)
  EXPECT_EQ(off.stats().io_failures, 4u);
  EXPECT_EQ(off.stats().io_retries, 3u);
  EXPECT_EQ(off.stats().store_faults, 1u);
  EXPECT_DOUBLE_EQ(off.stats().retry_backoff_time, 350e-6);
  EXPECT_EQ(off.store_status(id).code, IoErrorCode::data_lost);

  // Degradation ladder, last rung: a load of the lost tensor is served by
  // the recompute fallback (no I/O — not counted as a load). The fallback
  // only delays this load, so it is not a structural fault: a recorded
  // program stays valid.
  auto ticket = off.load(id, "x'", {u::mib(64) / 2}, t::DType::fp16);
  node_.simulator().run();
  EXPECT_TRUE(ticket.done->done());
  EXPECT_EQ(off.stats().loads, 0u);
  EXPECT_EQ(off.stats().load_faults, 1u);
  EXPECT_EQ(off.stats().recompute_fallbacks, 1u);
  EXPECT_GT(off.stats().recompute_fallback_time, 0.0);
  EXPECT_EQ(injector_->structural_epoch(), 0u);
  off.release(id);  // releasing a lost slot must not abort
  EXPECT_EQ(off.stats().releases, 1u);
}

TEST_P(FaultOffloaderTierTest, TransientErrorRetriesThenSucceeds) {
  f::FaultSpec errors = always_fail();
  errors.duration = 1e-4;  // window closes before the first retry lands
  core::OffloaderConfig cfg;
  cfg.fault.injector = &make_injector({errors});
  cfg.fault.initial_backoff = u::ms(1);
  core::Offloader off = offloader(cfg);

  auto x = make_tensor("x");
  const auto id = ids_.get_id(x);
  std::optional<sim::CompletionPtr> done;
  // Issue the store inside the window (the begin event at t=0 runs first).
  node_.simulator().schedule_at(0.0, [&] { done = off.store(id, x, nullptr); });
  node_.simulator().run();
  ASSERT_TRUE(done.has_value());

  EXPECT_TRUE((*done)->done());
  EXPECT_EQ(off.stats().io_retries, 1u);
  EXPECT_EQ(off.stats().io_failures, 1u);
  EXPECT_EQ(off.stats().store_faults, 0u);
  EXPECT_EQ(off.store_status(id).code, IoErrorCode::none);
  // The retried attempt still landed: the data loads back normally.
  auto ticket = off.load(id, "x'", {u::mib(64) / 2}, t::DType::fp16);
  node_.simulator().run();
  EXPECT_TRUE(ticket.done->done());
  EXPECT_EQ(off.stats().loads, 1u);
  EXPECT_EQ(off.stats().recompute_fallbacks, 0u);
}

TEST_F(FaultOffloaderTest, RetriesChargeWriteAmplification) {
  core::OffloaderConfig cfg;
  cfg.fault.injector = &make_injector({always_fail()});
  cfg.fault.max_attempts = 4;
  core::Offloader off = ssd_offloader(cfg);
  settle();

  const u::Bytes before = node_.array(0).host_bytes_written();
  auto x = make_tensor("x");
  auto done = off.store(ids_.get_id(x), x, nullptr);
  (void)done;
  node_.simulator().run();
  // Every aborted attempt programmed NAND up to the failure point: four
  // attempts' worth of stripes show up in the endurance model even though
  // no store ever landed.
  EXPECT_GE(node_.array(0).host_bytes_written() - before, 4 * x.bytes());
}

TEST_F(FaultOffloaderTest, LatencyWindowShiftsCompletionBySpecLatency) {
  f::FaultSpec spike;
  spike.kind = f::FaultKind::ssd_latency;
  spike.latency = u::us(200);
  core::OffloaderConfig cfg;
  cfg.fault.injector = &make_injector({spike});
  core::Offloader off = ssd_offloader(cfg);
  settle();

  auto x = make_tensor("x");
  auto done = off.store(ids_.get_id(x), x, nullptr);
  ASSERT_TRUE(done.has_value());
  node_.simulator().run();
  const double faulty = (*done)->completion_time();
  EXPECT_DOUBLE_EQ(off.stats().fault_extra_latency, 200e-6);

  // Reference: the identical store on an identical clean machine.
  hw::TrainingNode clean(hw::catalog::single_gpu_node(2));
  t::TensorFactory clean_factory(*clean.gpu(0).allocator);
  core::Offloader clean_off(clean, clean_factory,
                            std::make_unique<core::SsdTier>(clean, 0));
  auto y = clean_factory.cuda("x", {u::mib(64) / 2}, t::DType::fp16,
                              hw::MemoryTag::activation);
  auto clean_done = clean_off.store(ids_.get_id(y), y, nullptr);
  ASSERT_TRUE(clean_done.has_value());
  clean.simulator().run();
  EXPECT_NEAR(faulty - (*clean_done)->completion_time(), 200e-6, 1e-9);
}

TEST_F(FaultOffloaderTest, AttemptTimeoutRetriesUnderInjectedLatency) {
  f::FaultSpec spike;
  spike.kind = f::FaultKind::ssd_latency;
  spike.latency = u::ms(2);
  spike.duration = 1e-3;  // the spike is over before the first retry
  core::OffloaderConfig cfg;
  cfg.fault.injector = &make_injector({spike});
  cfg.fault.attempt_timeout = u::ms(1);
  cfg.fault.initial_backoff = u::ms(2);
  core::Offloader off = ssd_offloader(cfg);

  auto x = make_tensor("x");
  std::optional<sim::CompletionPtr> done;
  node_.simulator().schedule_at(
      0.0, [&] { done = off.store(ids_.get_id(x), x, nullptr); });
  node_.simulator().run();
  ASSERT_TRUE(done.has_value());
  EXPECT_TRUE((*done)->done());
  EXPECT_EQ(off.stats().io_failures, 1u);  // the timed-out attempt
  EXPECT_EQ(off.stats().io_retries, 1u);
  EXPECT_EQ(off.stats().store_faults, 0u);
}

TEST_F(FaultOffloaderTest, HostTierIgnoresInjectedSsdLatency) {
  // ssd-latency windows model NVMe-side stalls: a host-tier store starts
  // its D2H flow inside the attempt, pays no injected latency and so
  // cannot time out on it.
  f::FaultSpec spike;
  spike.kind = f::FaultKind::ssd_latency;
  spike.latency = u::us(200);
  core::OffloaderConfig cfg;
  cfg.fault.injector = &make_injector({spike});
  cfg.fault.attempt_timeout = u::us(100);
  core::Offloader off(node_, factory_,
                      std::make_unique<core::HostTier>(node_, 0), cfg);
  settle();

  auto x = make_tensor("x");
  auto done = off.store(ids_.get_id(x), x, nullptr);
  ASSERT_TRUE(done.has_value());
  node_.simulator().run();
  EXPECT_EQ(off.stats().fault_extra_latency, 0.0);
  EXPECT_EQ(off.stats().io_failures, 0u);

  // Reference: the identical store on an identical clean machine.
  hw::TrainingNode clean(hw::catalog::single_gpu_node(2));
  t::TensorFactory clean_factory(*clean.gpu(0).allocator);
  core::Offloader clean_off(clean, clean_factory,
                            std::make_unique<core::HostTier>(clean, 0));
  auto y = clean_factory.cuda("x", {u::mib(64) / 2}, t::DType::fp16,
                              hw::MemoryTag::activation);
  auto clean_done = clean_off.store(ids_.get_id(y), y, nullptr);
  ASSERT_TRUE(clean_done.has_value());
  clean.simulator().run();
  EXPECT_EQ((*done)->completion_time(), (*clean_done)->completion_time());
}

TEST_F(FaultOffloaderTest, HostTierRetriesAndFallsBackToo) {
  core::OffloaderConfig cfg;
  cfg.fault.injector = &make_injector({always_fail()});
  cfg.fault.max_attempts = 2;
  core::Offloader off(node_, factory_,
                      std::make_unique<core::HostTier>(node_, 0), cfg);
  settle();

  auto x = make_tensor("x");
  const auto id = ids_.get_id(x);
  auto done = off.store(id, x, nullptr);
  ASSERT_TRUE(done.has_value());
  node_.simulator().run();
  EXPECT_TRUE((*done)->done());
  EXPECT_EQ(off.stats().io_failures, 2u);
  EXPECT_EQ(off.stats().io_retries, 1u);
  EXPECT_EQ(off.stats().store_faults, 1u);
  EXPECT_EQ(off.store_status(id).code, IoErrorCode::data_lost);

  auto ticket = off.load(id, "x'", {u::mib(64) / 2}, t::DType::fp16);
  node_.simulator().run();
  EXPECT_TRUE(ticket.done->done());
  EXPECT_EQ(off.stats().recompute_fallbacks, 1u);
  off.release(id);
}

// ---------------------------------------------------------------------------
// Session-level determinism and program invalidation

rt::SessionConfig small_config(m::ModelConfig model, rt::Strategy strategy) {
  rt::SessionConfig config;
  config.model = std::move(model);
  config.parallel.tensor_parallel = 2;
  config.strategy = strategy;
  return config;
}

/// Timing-only fault mix for the determinism grid: an open-ended transient
/// error window plus an SSD latency spike inside the first step.
f::FaultConfig timing_faults(std::uint64_t seed) {
  f::FaultSpec errors;
  errors.kind = f::FaultKind::io_error;
  errors.rate = 0.3;
  f::FaultSpec spike;
  spike.kind = f::FaultKind::ssd_latency;
  spike.latency = u::us(100);
  spike.at = 0.001;
  spike.duration = 0.01;
  f::FaultConfig config;
  config.specs = {errors, spike};
  config.seed = seed;
  return config;
}

/// A spec list that enables the injector without ever perturbing a step:
/// the window closes at t=1ns, before any offload I/O can begin.
f::FaultConfig armed_but_quiet() {
  f::FaultSpec armed;
  armed.kind = f::FaultKind::ssd_latency;
  armed.latency = 1e-9;
  armed.duration = 1e-9;
  f::FaultConfig config;
  config.specs = {armed};
  config.seed = 11;
  return config;
}

void expect_steps_equal(const rt::StepStats& a, const rt::StepStats& b,
                        const std::string& what) {
  SCOPED_TRACE(what);
  EXPECT_EQ(a.step_time, b.step_time);
  EXPECT_EQ(a.drain_time, b.drain_time);
  EXPECT_EQ(a.activation_peak, b.activation_peak);
  EXPECT_EQ(a.total_peak, b.total_peak);
  EXPECT_EQ(a.executed_flops, b.executed_flops);
  EXPECT_EQ(a.compute_busy, b.compute_busy);
  EXPECT_EQ(a.offloaded_bytes, b.offloaded_bytes);
  EXPECT_EQ(a.loaded_bytes, b.loaded_bytes);
  EXPECT_EQ(a.ssd_host_written, b.ssd_host_written);
  EXPECT_EQ(a.io_retries, b.io_retries);
  EXPECT_EQ(a.io_failures, b.io_failures);
  EXPECT_EQ(a.recompute_fallbacks, b.recompute_fallbacks);
  EXPECT_EQ(a.fault_stall_time, b.fault_stall_time);
  EXPECT_EQ(a.program_invalidations, b.program_invalidations);
  EXPECT_EQ(a.cache.kept_store_failed, b.cache.kept_store_failed);
  EXPECT_EQ(a.offloader_totals.io_retries, b.offloader_totals.io_retries);
  EXPECT_EQ(a.offloader_totals.store_faults,
            b.offloader_totals.store_faults);
  EXPECT_EQ(a.offloader_totals.retry_backoff_time,
            b.offloader_totals.retry_backoff_time);
  EXPECT_EQ(a.offloader_totals.fault_extra_latency,
            b.offloader_totals.fault_extra_latency);
}

void expect_fault_logs_equal(const std::vector<f::FaultEvent>& a,
                             const std::vector<f::FaultEvent>& b,
                             const std::string& what) {
  SCOPED_TRACE(what);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].time, b[i].time);
    EXPECT_EQ(a[i].kind, b[i].kind);
    EXPECT_EQ(a[i].gpu, b[i].gpu);
    EXPECT_EQ(a[i].begin, b[i].begin);
    EXPECT_EQ(a[i].detail, b[i].detail);
  }
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

constexpr int kSteps = 3;

TEST(FaultDeterminism, IdenticalSeedIsBitIdenticalAcrossSessions) {
  for (const auto& model : model_grid()) {
    for (rt::Strategy strategy : all_strategies()) {
      const std::string what =
          model.name + " / " + std::string(to_string(strategy));
      auto config = small_config(model, strategy);
      config.faults = timing_faults(42);
      rt::SessionConfig config2 = config;
      rt::TrainingSession a(std::move(config));
      rt::TrainingSession b(std::move(config2));
      for (int step = 0; step < kSteps; ++step) {
        expect_steps_equal(a.run_step(), b.run_step(),
                           what + " step " + std::to_string(step));
      }
      ASSERT_NE(a.injector(), nullptr);
      ASSERT_NE(b.injector(), nullptr);
      expect_fault_logs_equal(a.injector()->events(),
                              b.injector()->events(), what);
      EXPECT_EQ(a.node().simulator().events_executed(),
                b.node().simulator().events_executed())
          << what;
    }
  }
}

TEST(FaultDeterminism, TracePathMatchesReplayPathUnderFaults) {
  // The injector's RNG draws track the I/O attempt sequence, which the
  // trace and replay paths issue identically — so the same seed must give
  // bit-identical steps whether the program is replayed or re-traced.
  for (const auto& model : model_grid()) {
    for (rt::Strategy strategy :
         {rt::Strategy::ssdtrain, rt::Strategy::ssdtrain_cpu,
          rt::Strategy::ssdtrain_recompute}) {
      const std::string what =
          model.name + " / " + std::string(to_string(strategy));
      auto traced_cfg = small_config(model, strategy);
      traced_cfg.faults = timing_faults(42);
      traced_cfg.use_replay = false;
      rt::SessionConfig replayed_cfg = traced_cfg;
      replayed_cfg.use_replay = true;
      rt::TrainingSession traced(std::move(traced_cfg));
      rt::TrainingSession replayed(std::move(replayed_cfg));
      for (int step = 0; step < kSteps; ++step) {
        expect_steps_equal(traced.run_step(), replayed.run_step(),
                           what + " step " + std::to_string(step));
      }
      ASSERT_NE(replayed.program(), nullptr) << what;
      expect_fault_logs_equal(traced.injector()->events(),
                              replayed.injector()->events(), what);
    }
  }
}

TEST(FaultDeterminism, PermanentStoreFailuresMatchOnTraceAndReplay) {
  // A store whose every retry fails leaves its tensor on the GPU
  // (kept_store_failed). The cache takes that branch of its store
  // transition whether the trace hooks or a replayed program drive it, and
  // both must give the same step. The 70% error window covers the first
  // fifth of a replayed step, i.e. its forward stores but not the backward
  // reloads: no reload falls back to recompute, so the program stays valid
  // and the step really replays (an open-ended window makes every step
  // re-record instead).
  for (rt::Strategy strategy :
       {rt::Strategy::ssdtrain, rt::Strategy::ssdtrain_cpu}) {
    const std::string what(to_string(strategy));
    auto traced_cfg = small_config(m::bert_config(8192, 2, 8), strategy);
    traced_cfg.faults = armed_but_quiet();
    traced_cfg.faults.seed = 42;
    traced_cfg.use_replay = false;
    rt::SessionConfig replayed_cfg = traced_cfg;
    replayed_cfg.use_replay = true;
    rt::TrainingSession traced(std::move(traced_cfg));
    rt::TrainingSession replayed(std::move(replayed_cfg));

    const rt::StepStats recorded = traced.run_step();
    expect_steps_equal(recorded, replayed.run_step(), what + " step 0");
    f::FaultSpec errors;
    errors.kind = f::FaultKind::io_error;
    errors.rate = 0.7;
    errors.duration = recorded.step_time / 5;
    traced.injector()->trigger(errors);
    replayed.injector()->trigger(errors);

    ASSERT_NE(replayed.program(), nullptr) << what;
    ASSERT_TRUE(replayed.program()->replayable) << what;
    const rt::StepStats traced_failed = traced.run_step();
    const rt::StepStats failed = replayed.run_step();
    expect_steps_equal(traced_failed, failed, what + " step 1");
    EXPECT_GT(failed.cache.kept_store_failed,
              recorded.cache.kept_store_failed)
        << what;
    EXPECT_EQ(failed.program_invalidations, 0u) << what;  // it replayed
    expect_steps_equal(traced.run_step(), replayed.run_step(),
                       what + " step 2");
    expect_fault_logs_equal(traced.injector()->events(),
                            replayed.injector()->events(), what);
  }
}

TEST(FaultDeterminism, StoreFailuresWhileRecordingMatchOnReplay) {
  // Step 0 records its program while a 70% error window, open for the
  // first fifth of a clean step, fails some stores permanently: the cache
  // keeps those tensors on the GPU until their release. In the replayed
  // steps the window is over and every store lands, so each stored tensor
  // must be freed when its store completes, as on the trace path, and not
  // held until the release where the recording saw it die.
  for (rt::Strategy strategy :
       {rt::Strategy::ssdtrain, rt::Strategy::ssdtrain_cpu}) {
    const std::string what(to_string(strategy));
    const m::ModelConfig model = m::bert_config(8192, 2, 8);
    const u::Seconds clean_step =
        rt::TrainingSession(small_config(model, strategy)).run_step().step_time;
    f::FaultSpec errors;
    errors.kind = f::FaultKind::io_error;
    errors.rate = 0.7;
    errors.duration = clean_step / 5;
    auto traced_cfg = small_config(model, strategy);
    traced_cfg.faults.specs = {errors};
    traced_cfg.faults.seed = 7;
    traced_cfg.use_replay = false;
    rt::SessionConfig replayed_cfg = traced_cfg;
    replayed_cfg.use_replay = true;
    rt::TrainingSession traced(std::move(traced_cfg));
    rt::TrainingSession replayed(std::move(replayed_cfg));

    const rt::StepStats recorded = replayed.run_step();
    expect_steps_equal(traced.run_step(), recorded, what + " step 0");
    EXPECT_GT(recorded.cache.kept_store_failed, 0u) << what;
    for (int step = 1; step < 4; ++step) {
      ASSERT_NE(replayed.program(), nullptr) << what;
      const rt::StepStats replayed_step = replayed.run_step();
      expect_steps_equal(traced.run_step(), replayed_step,
                         what + " step " + std::to_string(step));
      EXPECT_EQ(replayed_step.program_invalidations, 0u) << what;
    }
    expect_fault_logs_equal(traced.injector()->events(),
                            replayed.injector()->events(), what);
  }
}

TEST(FaultDeterminism, StoresRefusedWhileRecordingMatchOnReplay) {
  // The same drop rule covers a store the host tier refused while step 0
  // recorded (pinned pool too small): once the pool is back to its size,
  // every replayed store lands and must free its tensor when it does.
  const std::string what(to_string(rt::Strategy::ssdtrain_cpu));
  auto traced_cfg =
      small_config(m::bert_config(8192, 2, 8), rt::Strategy::ssdtrain_cpu);
  traced_cfg.use_replay = false;
  rt::SessionConfig replayed_cfg = traced_cfg;
  replayed_cfg.use_replay = true;
  rt::TrainingSession traced(std::move(traced_cfg));
  rt::TrainingSession replayed(std::move(replayed_cfg));
  const u::Bytes pool = traced.node().pinned_pool().pool_size();
  traced.node().pinned_pool().resize(pool / 3);
  replayed.node().pinned_pool().resize(pool / 3);

  const rt::StepStats recorded = replayed.run_step();
  expect_steps_equal(traced.run_step(), recorded, what + " step 0");
  EXPECT_GT(recorded.cache.kept_offloader_refused, 0u);
  traced.node().pinned_pool().resize(pool);
  replayed.node().pinned_pool().resize(pool);
  for (int step = 1; step < 4; ++step) {
    ASSERT_NE(replayed.program(), nullptr);
    const rt::StepStats replayed_step = replayed.run_step();
    expect_steps_equal(traced.run_step(), replayed_step,
                       what + " step " + std::to_string(step));
    EXPECT_EQ(replayed_step.cache.kept_offloader_refused,
              recorded.cache.kept_offloader_refused);  // no new refusals
  }
}

TEST(FaultProgram, SteadyIoErrorsKeepReplaying) {
  // Under an open-ended error rate high enough that reloads run out of
  // retries, every backward falls back to recompute. A fallback only
  // delays its load, so the program recorded at step 0 keeps replaying,
  // and each replayed step equals the traced one.
  for (const double rate : {0.7, 0.9}) {
    for (const std::uint64_t seed : {42u, 7u}) {
      for (rt::Strategy strategy :
           {rt::Strategy::ssdtrain, rt::Strategy::ssdtrain_cpu}) {
        const std::string what = std::string(to_string(strategy)) +
                                 " rate " + std::to_string(rate) + " seed " +
                                 std::to_string(seed);
        f::FaultSpec errors;
        errors.kind = f::FaultKind::io_error;
        errors.rate = rate;
        auto traced_cfg = small_config(m::bert_config(8192, 2, 8), strategy);
        traced_cfg.faults.specs = {errors};
        traced_cfg.faults.seed = seed;
        traced_cfg.use_replay = false;
        rt::SessionConfig replayed_cfg = traced_cfg;
        replayed_cfg.use_replay = true;
        rt::TrainingSession traced(std::move(traced_cfg));
        rt::TrainingSession replayed(std::move(replayed_cfg));

        expect_steps_equal(traced.run_step(), replayed.run_step(),
                           what + " step 0");
        std::uint64_t fallbacks = 0;
        for (int step = 1; step < 4; ++step) {
          ASSERT_NE(replayed.program(), nullptr) << what;
          const rt::StepStats replayed_step = replayed.run_step();
          expect_steps_equal(traced.run_step(), replayed_step,
                             what + " step " + std::to_string(step));
          EXPECT_EQ(replayed_step.program_invalidations, 0u) << what;
          fallbacks += replayed_step.recompute_fallbacks;
        }
        EXPECT_GT(fallbacks, 0u) << what;
        EXPECT_EQ(replayed.injector()->structural_epoch(), 0u) << what;
        expect_fault_logs_equal(traced.injector()->events(),
                                replayed.injector()->events(), what);
      }
    }
  }
}

TEST(FaultProgram, TimingFaultsNeverInvalidateTheProgram) {
  auto config = small_config(m::bert_config(2048, 2, 2),
                             rt::Strategy::ssdtrain);
  config.faults = timing_faults(7);
  rt::TrainingSession session(std::move(config));
  std::uint64_t invalidations = 0;
  for (int step = 0; step < 4; ++step) {
    invalidations += session.run_step().program_invalidations;
  }
  EXPECT_EQ(invalidations, 0u);
  ASSERT_NE(session.program(), nullptr);
  EXPECT_TRUE(session.program()->replayable);
}

TEST(FaultProgram, StructuralFaultForcesRetrace) {
  auto config = small_config(m::bert_config(2048, 2, 2),
                             rt::Strategy::ssdtrain);
  config.faults = armed_but_quiet();
  const int gpu = config.gpu_index;
  rt::TrainingSession session(std::move(config));
  session.run_steps(2);
  ASSERT_NE(session.program(), nullptr);

  f::FaultSpec dropout;
  dropout.kind = f::FaultKind::ssd_dropout;
  dropout.gpu = gpu;
  dropout.member = 0;
  session.injector()->trigger(dropout);

  const auto recovery = session.run_step();
  EXPECT_EQ(recovery.program_invalidations, 1u);
  // The re-trace re-recorded a fresh program against the degraded array...
  ASSERT_NE(session.program(), nullptr);
  EXPECT_TRUE(session.program()->replayable);
  // ...and replay resumes: no further invalidations.
  EXPECT_EQ(session.run_step().program_invalidations, 0u);
}

TEST(FaultRecovery, PostDropoutStateMatchesFreshDegradedSession) {
  // Session A: healthy for two steps, then a RAID member drops and it
  // recovers (re-trace, re-record, rebalanced offload budget). Session B:
  // the member is already dead before step one. After recovery, A's
  // steady-state replay steps must be bit-identical to B's — degraded
  // mode is a state, not an accumulating error.
  auto make = [] {
    auto config = small_config(m::bert_config(2048, 2, 2),
                               rt::Strategy::ssdtrain);
    config.faults = armed_but_quiet();
    return config;
  };
  const int gpu = make().gpu_index;
  f::FaultSpec dropout;
  dropout.kind = f::FaultKind::ssd_dropout;
  dropout.gpu = gpu;
  dropout.member = 0;

  rt::TrainingSession a(make());
  a.run_steps(2);
  a.injector()->trigger(dropout);
  a.run_step();  // re-trace + re-record against the degraded array
  const auto a_steady = a.run_step();

  rt::TrainingSession b(make());
  b.injector()->trigger(dropout);
  b.run_step();  // records against the degraded array right away
  const auto b_steady = b.run_step();

  // Times agree to rounding noise only: the two sessions reach the steady
  // state at different absolute simulated instants, so the subtraction
  // end - start rounds differently in the last bits.
  EXPECT_NEAR(a_steady.step_time, b_steady.step_time,
              1e-12 * b_steady.step_time);
  EXPECT_NEAR(a_steady.compute_busy, b_steady.compute_busy,
              1e-12 * b_steady.compute_busy);
  EXPECT_EQ(a_steady.offloaded_bytes, b_steady.offloaded_bytes);
}

// ---------------------------------------------------------------------------
// Cluster sessions

TEST(ClusterFaults, SeededDeterminismAndStructuralInvalidation) {
  auto make = [] {
    rt::ClusterConfig config;
    config.model = m::bert_config(2048, 4, 4);
    config.parallel.pipeline_parallel = 2;
    config.strategy = rt::Strategy::ssdtrain;
    config.micro_batches = 4;
    config.schedule = ssdtrain::sched::PipelineKind::one_f_one_b;
    config.faults = timing_faults(13);
    return config;
  };
  rt::ClusterSession a(make());
  rt::ClusterSession b(make());
  for (int step = 0; step < kSteps; ++step) {
    const auto sa = a.run_step();
    const auto sb = b.run_step();
    expect_steps_equal(sa.combined, sb.combined,
                       "cluster step " + std::to_string(step));
    EXPECT_EQ(sa.pipeline_time, sb.pipeline_time);
    EXPECT_EQ(sa.p2p_bytes, sb.p2p_bytes);
    EXPECT_EQ(sa.dp_bytes, sb.dp_bytes);
  }
  ASSERT_NE(a.injector(), nullptr);
  expect_fault_logs_equal(a.injector()->events(), b.injector()->events(),
                          "cluster fault logs");

  // A structural fault discards every stage's recorded program at the next
  // step boundary; both stages re-record (chunk-staggered) and recover.
  f::FaultSpec dropout;
  dropout.kind = f::FaultKind::ssd_dropout;
  dropout.gpu = 0;
  dropout.member = 0;
  a.injector()->trigger(dropout);
  EXPECT_EQ(a.run_step().combined.program_invalidations, 2u);
  EXPECT_EQ(a.run_step().combined.program_invalidations, 0u);
}

}  // namespace
