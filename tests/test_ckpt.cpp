// Crash-consistent checkpointing: manifest serdes (byte-stable round trip,
// malformed-buffer rejection grid), the CheckpointWriter's shadow-write +
// atomic-flip commit protocol (torn newest falls back to the previous
// committed generation; all-corrupt cold-restarts), Young–Daly cadence
// arithmetic, policy validation, and the session-level recovery driver: a
// seeded stage-crash with lose=state restores the last committed checkpoint,
// rolls the logical step back, and then replays the lost steps bit-identically
// to an uninterrupted run (excluding the cumulative offloader/cache fields).

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include "ssdtrain/ckpt/manifest.hpp"
#include "ssdtrain/ckpt/policy.hpp"
#include "ssdtrain/ckpt/writer.hpp"
#include "ssdtrain/fault/fault.hpp"
#include "ssdtrain/fault/injector.hpp"
#include "ssdtrain/hw/catalog.hpp"
#include "ssdtrain/hw/node.hpp"
#include "ssdtrain/modules/model.hpp"
#include "ssdtrain/runtime/cluster_session.hpp"
#include "ssdtrain/runtime/session.hpp"
#include "ssdtrain/util/check.hpp"
#include "ssdtrain/util/units.hpp"

namespace ck = ssdtrain::ckpt;
namespace f = ssdtrain::fault;
namespace hw = ssdtrain::hw;
namespace m = ssdtrain::modules;
namespace rt = ssdtrain::runtime;
namespace u = ssdtrain::util;

namespace {

// ---------------------------------------------------------------------------
// Manifest serdes

ck::CheckpointManifest sample_manifest() {
  ck::CheckpointManifest manifest;
  manifest.sequence = 7;
  manifest.step = 42;
  manifest.sim_time = 1.5e-3;
  manifest.shards = {
      {0, 0, u::mib(64), 6 * u::mib(64)},
      {1, 0, u::mib(64), 6 * u::mib(64)},
      {0, 1, u::mib(32), 6 * u::mib(32)},
  };
  return manifest;
}

// Test-local FNV-1a mirror, so corruption tests can re-seal a blob after
// mutating the payload and reach the checks *behind* the checksum.
std::uint64_t fnv1a(const std::string& data, std::size_t from) {
  std::uint64_t hash = 1469598103934665603ULL;
  for (std::size_t i = from; i < data.size(); ++i) {
    hash ^= static_cast<unsigned char>(data[i]);
    hash *= 1099511628211ULL;
  }
  return hash;
}

constexpr std::size_t kHeaderSize = 8 + 4 + 8;  // magic + version + checksum

void reseal(std::string& blob) {
  const std::uint64_t checksum = fnv1a(blob, kHeaderSize);
  for (int i = 0; i < 8; ++i) {
    blob[12 + static_cast<std::size_t>(i)] =
        static_cast<char>(checksum >> (8 * i));
  }
}

TEST(CkptManifest, RoundTripIsByteStable) {
  const ck::CheckpointManifest manifest = sample_manifest();
  const std::string blob = serialize_manifest(manifest);

  ck::CheckpointManifest back;
  std::string error;
  ASSERT_TRUE(deserialize_manifest(blob, back, &error)) << error;
  EXPECT_EQ(back, manifest);
  EXPECT_EQ(back.total_bytes(), manifest.total_bytes());
  EXPECT_EQ(back.gpu_bytes(0), 7 * u::mib(64) + 7 * u::mib(32));
  EXPECT_EQ(back.gpu_bytes(1), 7 * u::mib(64));

  // Re-serialization of the parsed manifest is byte-identical.
  EXPECT_EQ(serialize_manifest(back), blob);
}

TEST(CkptManifest, EmptyShardListRoundTrips) {
  ck::CheckpointManifest manifest;
  manifest.sequence = 1;
  ck::CheckpointManifest back;
  ASSERT_TRUE(deserialize_manifest(serialize_manifest(manifest), back));
  EXPECT_EQ(back, manifest);
}

TEST(CkptManifest, RejectsEveryTruncation) {
  const std::string blob = serialize_manifest(sample_manifest());
  for (std::size_t len = 0; len < blob.size(); ++len) {
    ck::CheckpointManifest out;
    std::string error;
    EXPECT_FALSE(
        deserialize_manifest(std::string_view(blob).substr(0, len), out,
                             &error))
        << "accepted a manifest truncated to " << len << " bytes";
    EXPECT_FALSE(error.empty());
  }
}

TEST(CkptManifest, RejectsBadMagic) {
  std::string blob = serialize_manifest(sample_manifest());
  blob[0] = 'X';
  ck::CheckpointManifest out;
  std::string error;
  EXPECT_FALSE(deserialize_manifest(blob, out, &error));
  EXPECT_NE(error.find("magic"), std::string::npos) << error;
}

TEST(CkptManifest, RejectsWrongVersion) {
  std::string blob = serialize_manifest(sample_manifest());
  blob[8] = static_cast<char>(ck::kManifestFormatVersion + 1);
  ck::CheckpointManifest out;
  std::string error;
  EXPECT_FALSE(deserialize_manifest(blob, out, &error));
  EXPECT_NE(error.find("version"), std::string::npos) << error;
}

TEST(CkptManifest, RejectsChecksumFlipAnywhereInPayload) {
  const std::string blob = serialize_manifest(sample_manifest());
  for (std::size_t i = kHeaderSize; i < blob.size(); ++i) {
    std::string corrupt = blob;
    corrupt[i] = static_cast<char>(corrupt[i] ^ 0x40);
    ck::CheckpointManifest out;
    std::string error;
    EXPECT_FALSE(deserialize_manifest(corrupt, out, &error))
        << "accepted a bit flip at byte " << i;
    EXPECT_NE(error.find("checksum"), std::string::npos) << error;
  }
}

TEST(CkptManifest, RejectsTornShadowRegion) {
  // A torn shadow write truncates before the trailing commit marker. Zero
  // the marker and re-seal the checksum so the tear itself — not the
  // checksum — is what the reader has to catch.
  std::string blob = serialize_manifest(sample_manifest());
  blob.back() = 0;
  reseal(blob);
  ck::CheckpointManifest out;
  std::string error;
  EXPECT_FALSE(deserialize_manifest(blob, out, &error));
  EXPECT_NE(error.find("torn"), std::string::npos) << error;
}

TEST(CkptManifest, RejectsImplausibleShardCount) {
  ck::CheckpointManifest manifest;  // no shards: count field is last u32
  std::string blob = serialize_manifest(manifest);
  const std::size_t count_at = kHeaderSize + 8 + 8 + 8;
  blob[count_at + 3] = static_cast<char>(0x7f);  // ~2 billion shards
  reseal(blob);
  ck::CheckpointManifest out;
  std::string error;
  EXPECT_FALSE(deserialize_manifest(blob, out, &error));
  EXPECT_NE(error.find("shard count"), std::string::npos) << error;
}

TEST(CkptManifest, RejectsTrailingBytes) {
  std::string blob = serialize_manifest(sample_manifest());
  blob += '\0';
  ck::CheckpointManifest out;
  std::string error;
  EXPECT_FALSE(deserialize_manifest(blob, out, &error));
}

// ---------------------------------------------------------------------------
// Young–Daly cadence + policy validation

TEST(CkptPolicy, YoungDalyClosedForm) {
  EXPECT_DOUBLE_EQ(ck::young_daly_interval(2.0, 100.0), 20.0);
  EXPECT_DOUBLE_EQ(ck::young_daly_interval(0.5, 3600.0), 60.0);
  // Longer MTBF or cheaper checkpoints stretch the interval.
  EXPECT_GT(ck::young_daly_interval(2.0, 1000.0),
            ck::young_daly_interval(2.0, 100.0));
  EXPECT_LT(ck::young_daly_interval(1.0, 100.0),
            ck::young_daly_interval(2.0, 100.0));
}

TEST(CkptPolicy, ValidateAcceptsEachSingleMode) {
  ck::CheckpointPolicy disabled;
  EXPECT_FALSE(disabled.enabled());
  EXPECT_NO_THROW(disabled.validate());

  ck::CheckpointPolicy steps;
  steps.every_steps = 4;
  EXPECT_TRUE(steps.enabled());
  EXPECT_NO_THROW(steps.validate());

  ck::CheckpointPolicy seconds;
  seconds.every_seconds = 0.5;
  EXPECT_NO_THROW(seconds.validate());

  ck::CheckpointPolicy young_daly;
  young_daly.auto_interval = true;
  young_daly.mtbf = 100.0;
  EXPECT_NO_THROW(young_daly.validate());
}

TEST(CkptPolicy, ValidateRejectsContradictions) {
  ck::CheckpointPolicy both;
  both.every_steps = 4;
  both.every_seconds = 0.5;
  EXPECT_THROW(both.validate(), u::ContractViolation);

  ck::CheckpointPolicy steps_and_auto;
  steps_and_auto.every_steps = 4;
  steps_and_auto.auto_interval = true;
  steps_and_auto.mtbf = 100.0;
  EXPECT_THROW(steps_and_auto.validate(), u::ContractViolation);

  ck::CheckpointPolicy auto_without_mtbf;
  auto_without_mtbf.auto_interval = true;
  EXPECT_THROW(auto_without_mtbf.validate(), u::ContractViolation);

  ck::CheckpointPolicy negative;
  negative.every_steps = -1;
  EXPECT_THROW(negative.validate(), u::ContractViolation);
}

// ---------------------------------------------------------------------------
// CheckpointWriter: commit protocol, retention, torn fallback

constexpr int kGpu = hw::catalog::table2_measured_gpu;

TEST(CkptWriter, CommitWritesRealBytesAndRetainsTwoGenerations) {
  hw::TrainingNode node(hw::catalog::table2_evaluation_node());
  const u::Bytes before = node.array(kGpu).host_bytes_written();

  ck::CheckpointWriter writer(node, /*use_gds=*/true);
  writer.add_stage(kGpu, 0, u::mib(64), 6 * u::mib(64));
  ASSERT_EQ(writer.stage_count(), 1u);

  const ck::CheckpointCommit first = writer.write(2);
  EXPECT_EQ(first.sequence, 1u);
  EXPECT_EQ(first.step, 2u);
  EXPECT_GT(first.time, 0.0);
  EXPECT_GT(first.bytes, 7 * u::mib(64));  // bulk + manifest blob
  EXPECT_EQ(writer.committed_manifests(), 1u);
  EXPECT_EQ(writer.last_commit_step(), 2u);
  EXPECT_EQ(writer.last_commit_time(), first.committed_at);

  // Every checkpoint byte ages the NAND through record_write.
  EXPECT_GE(node.array(kGpu).host_bytes_written() - before, 7 * u::mib(64));

  writer.write(4);
  writer.write(6);
  EXPECT_EQ(writer.committed_count(), 3u);
  // Retention keeps two generations: the newest plus its fallback.
  EXPECT_EQ(writer.committed_manifests(), 2u);
  EXPECT_EQ(writer.last_commit_step(), 6u);
  EXPECT_GE(writer.bytes_written(), 3 * 7 * u::mib(64));
}

TEST(CkptWriter, TornNewestFallsBackToPreviousCommit) {
  hw::TrainingNode node(hw::catalog::table2_evaluation_node());
  ck::CheckpointWriter writer(node, /*use_gds=*/true);
  writer.add_stage(kGpu, 0, u::mib(64), 6 * u::mib(64));

  writer.write(5);
  writer.write(10);
  writer.corrupt_committed(0);  // tear the newest generation

  const ck::RestoreResult restore = writer.restore({kGpu});
  EXPECT_TRUE(restore.restored);
  EXPECT_EQ(restore.step, 5u);
  EXPECT_EQ(restore.manifests_rejected, 1);
  EXPECT_GT(restore.time, 0.0);
  EXPECT_GT(restore.bytes, 0);
  // The torn generation no longer counts as the newest valid commit.
  EXPECT_EQ(writer.last_commit_step(), 5u);
}

TEST(CkptWriter, AllGenerationsCorruptMeansColdRestart) {
  hw::TrainingNode node(hw::catalog::table2_evaluation_node());
  ck::CheckpointWriter writer(node, /*use_gds=*/true);
  writer.add_stage(kGpu, 0, u::mib(64), 6 * u::mib(64));

  writer.write(3);
  writer.write(6);
  writer.corrupt_committed(0);
  writer.corrupt_committed(1);

  const ck::RestoreResult restore = writer.restore({kGpu});
  EXPECT_FALSE(restore.restored);
  EXPECT_EQ(restore.step, 0u);
  EXPECT_EQ(restore.manifests_rejected, 2);
}

TEST(CkptWriter, RestoreBeforeAnyCommitColdRestarts) {
  hw::TrainingNode node(hw::catalog::table2_evaluation_node());
  ck::CheckpointWriter writer(node, /*use_gds=*/true);
  writer.add_stage(kGpu, 0, u::mib(64), 6 * u::mib(64));

  const ck::RestoreResult restore = writer.restore({kGpu});
  EXPECT_FALSE(restore.restored);
  EXPECT_EQ(restore.step, 0u);
  EXPECT_EQ(restore.manifests_rejected, 0);
}

// ---------------------------------------------------------------------------
// Session-level checkpointing and recovery

rt::SessionConfig small_config(m::ModelConfig model, rt::Strategy strategy) {
  rt::SessionConfig config;
  config.model = std::move(model);
  config.parallel.tensor_parallel = 2;
  config.strategy = strategy;
  return config;
}

/// The invariant (non-cumulative) StepStats fields: everything the
/// acceptance contract requires to match between a replayed post-recovery
/// step and the same logical step of an uninterrupted run. Byte and count
/// fields must be exactly equal; time-valued fields are durations computed
/// as differences of absolute simulator timestamps, and the crashed run
/// executes its replayed steps at a different absolute offset, so those
/// compare at DOUBLE_EQ (4-ULP) precision — the replay itself is exact, the
/// last-bit wiggle is the t_end - t_start subtraction. loaded_bytes,
/// cache.*, and offloader_totals.* are cumulative across the session's
/// whole life (including rolled-back work), so they are excluded.
void expect_time_equal(double a, double b) {
  EXPECT_NEAR(a, b, 1e-9 * std::max(1.0, std::abs(b)));
}

void expect_replayed_step_equal(const rt::StepStats& a, const rt::StepStats& b,
                                const std::string& what) {
  SCOPED_TRACE(what);
  expect_time_equal(a.step_time, b.step_time);
  expect_time_equal(a.drain_time, b.drain_time);
  expect_time_equal(a.optimizer_time, b.optimizer_time);
  EXPECT_EQ(a.activation_peak, b.activation_peak);
  EXPECT_EQ(a.total_peak, b.total_peak);
  EXPECT_EQ(a.weights_live, b.weights_live);
  EXPECT_EQ(a.executed_flops, b.executed_flops);
  expect_time_equal(a.compute_busy, b.compute_busy);
  EXPECT_EQ(a.offloaded_bytes, b.offloaded_bytes);
  EXPECT_EQ(a.ssd_host_written, b.ssd_host_written);
  expect_time_equal(a.checkpoint_time, b.checkpoint_time);
  EXPECT_EQ(a.checkpoint_bytes, b.checkpoint_bytes);
  expect_time_equal(a.restore_time, b.restore_time);
  EXPECT_EQ(a.rollback_steps, b.rollback_steps);
  expect_time_equal(a.lost_work_time, b.lost_work_time);
}

TEST(CkptSession, PeriodicPolicyCommitsOnCadence) {
  rt::SessionConfig config =
      small_config(m::bert_config(2048, 2, 2), rt::Strategy::ssdtrain);
  config.checkpoint.every_steps = 2;
  rt::TrainingSession session(config);
  ASSERT_NE(session.checkpoint_writer(), nullptr);

  const std::vector<rt::StepStats> steps = session.run_steps(6);
  for (int i = 0; i < 6; ++i) {
    SCOPED_TRACE("step " + std::to_string(i + 1));
    if ((i + 1) % 2 == 0) {
      EXPECT_GT(steps[static_cast<std::size_t>(i)].checkpoint_time, 0.0);
      EXPECT_GT(steps[static_cast<std::size_t>(i)].checkpoint_bytes, 0);
    } else {
      EXPECT_EQ(steps[static_cast<std::size_t>(i)].checkpoint_time, 0.0);
      EXPECT_EQ(steps[static_cast<std::size_t>(i)].checkpoint_bytes, 0);
    }
    EXPECT_EQ(steps[static_cast<std::size_t>(i)].restore_time, 0.0);
    EXPECT_EQ(steps[static_cast<std::size_t>(i)].rollback_steps, 0u);
  }
  EXPECT_EQ(session.logical_step(), 6u);
  EXPECT_EQ(session.checkpoint_writer()->committed_count(), 3u);

  const ck::GoodputReport report = session.goodput();
  EXPECT_EQ(report.checkpoints, 3u);
  EXPECT_EQ(report.restores, 0u);
  EXPECT_GT(report.checkpoint_time, 0.0);
  EXPECT_GT(report.checkpoint_bytes, 0);
  EXPECT_GT(report.useful_time, 0.0);
  EXPECT_GE(report.wall_clock,
            report.useful_time + report.checkpoint_time);
  EXPECT_GT(report.goodput(), 0.0);
  EXPECT_LT(report.goodput(), 1.0);
}

TEST(CkptSession, NoPolicyHasZeroOverheadAndFullGoodput) {
  rt::SessionConfig config =
      small_config(m::bert_config(2048, 2, 2), rt::Strategy::ssdtrain);
  rt::TrainingSession session(config);
  EXPECT_EQ(session.checkpoint_writer(), nullptr);

  for (const rt::StepStats& stats : session.run_steps(3)) {
    EXPECT_EQ(stats.checkpoint_time, 0.0);
    EXPECT_EQ(stats.checkpoint_bytes, 0);
    EXPECT_EQ(stats.restore_time, 0.0);
    EXPECT_EQ(stats.rollback_steps, 0u);
    EXPECT_EQ(stats.lost_work_time, 0.0);
  }
  const ck::GoodputReport report = session.goodput();
  EXPECT_EQ(report.checkpoints, 0u);
  EXPECT_EQ(report.checkpoint_time, 0.0);
  EXPECT_EQ(report.restore_time, 0.0);
  EXPECT_GT(report.useful_time, 0.0);
  EXPECT_GT(report.goodput(), 0.0);
}

TEST(CkptSession, AutoModeUsesYoungDalyInterval) {
  rt::SessionConfig config =
      small_config(m::bert_config(2048, 2, 2), rt::Strategy::ssdtrain);
  config.checkpoint.auto_interval = true;
  config.checkpoint.mtbf = 1000.0;
  rt::TrainingSession session(config);

  // The first boundary commits unconditionally (cost measurement); after
  // that, commits wait out sqrt(2*C*MTBF) — far longer than these tiny
  // simulated steps, so no further commit happens.
  const std::vector<rt::StepStats> steps = session.run_steps(4);
  EXPECT_GT(steps[0].checkpoint_time, 0.0);
  for (int i = 1; i < 4; ++i) {
    EXPECT_EQ(steps[static_cast<std::size_t>(i)].checkpoint_time, 0.0);
  }
  EXPECT_EQ(session.checkpoint_writer()->committed_count(), 1u);
}

TEST(CkptSession, LoseStateWithoutPolicyIsRejectedAtConstruction) {
  rt::SessionConfig config =
      small_config(m::bert_config(2048, 2, 2), rt::Strategy::ssdtrain);
  f::FaultSpec crash;
  crash.kind = f::FaultKind::stage_crash;
  crash.at = 0.001;
  crash.duration = 0.01;
  crash.lose = f::CrashLoss::state;
  config.faults.specs = {crash};
  EXPECT_THROW(rt::TrainingSession session(config), u::ContractViolation);

  // With a policy, the same config constructs fine.
  config.checkpoint.every_steps = 1;
  EXPECT_NO_THROW(rt::TrainingSession session(config));
}

TEST(CkptCluster, LoseStateWithoutPolicyIsRejectedAtConstruction) {
  rt::ClusterConfig config;
  config.model = m::bert_config(2048, 2, 2);
  config.parallel.pipeline_parallel = 2;
  f::FaultSpec crash;
  crash.kind = f::FaultKind::stage_crash;
  crash.gpu = 0;
  crash.at = 0.001;
  crash.duration = 0.01;
  crash.lose = f::CrashLoss::state;
  config.faults.specs = {crash};
  EXPECT_THROW(rt::ClusterSession session(std::move(config)),
               u::ContractViolation);
}

TEST(CkptSession, TriggeredLoseStateWithoutPolicyFailsLoudly) {
  // The constructor guard only sees config specs; a crash injected through
  // trigger() must still refuse to silently continue without a checkpoint.
  rt::SessionConfig config =
      small_config(m::bert_config(2048, 2, 2), rt::Strategy::ssdtrain);
  f::FaultSpec quiet;  // arms the injector without perturbing anything
  quiet.kind = f::FaultKind::ssd_latency;
  quiet.latency = 1e-9;
  quiet.duration = 1e-9;
  config.faults.specs = {quiet};
  rt::TrainingSession session(config);
  session.run_step();

  f::FaultSpec crash;
  crash.kind = f::FaultKind::stage_crash;
  crash.gpu = session.config().gpu_index;
  crash.duration = 0.001;
  crash.lose = f::CrashLoss::state;
  session.injector()->trigger(crash);
  EXPECT_THROW(session.run_step(), u::ContractViolation);
}

/// Arms the injector without perturbing anything: the window closes at
/// t=1ns, before any offload I/O can begin. Both runs of a crash-vs-clean
/// comparison carry it so the fault layer's presence is identical.
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

/// The tentpole acceptance: a seeded destructive stage-crash mid-run rolls
/// back to the last committed checkpoint and then replays the lost steps
/// bit-identically to an uninterrupted run of the same configuration.
TEST(CkptRecovery, CrashRestoreRollbackReplaysBitIdentically) {
  rt::SessionConfig base =
      small_config(m::bert_config(2048, 2, 2), rt::Strategy::ssdtrain);
  base.checkpoint.every_steps = 2;
  base.faults = armed_but_quiet();

  // Uninterrupted reference run: 6 steps, commits after steps 2/4/6.
  rt::TrainingSession reference(base);
  const std::vector<rt::StepStats> ref = reference.run_steps(6);

  rt::TrainingSession crashed(base);
  for (int i = 0; i < 3; ++i) {
    expect_replayed_step_equal(crashed.run_step(),
                               ref[static_cast<std::size_t>(i)],
                               "pre-crash step " + std::to_string(i + 1));
  }
  EXPECT_EQ(crashed.logical_step(), 3u);

  // Crash the stage at the step-3 boundary (after the step-2 commit): the
  // stream stalls for the restart window and the stage's state is wiped.
  f::FaultSpec crash;
  crash.kind = f::FaultKind::stage_crash;
  crash.gpu = base.gpu_index;
  crash.duration = 0.3 * ref[3].step_time;
  crash.lose = f::CrashLoss::state;
  crashed.injector()->trigger(crash);

  // Step 4 crashes: restore the step-2 commit and roll back two steps.
  const rt::StepStats crash_step = crashed.run_step();
  EXPECT_GT(crash_step.restore_time, 0.0);
  EXPECT_EQ(crash_step.rollback_steps, 2u);
  EXPECT_GT(crash_step.lost_work_time, 0.0);
  EXPECT_EQ(crashed.logical_step(), 2u);
  ASSERT_NE(crashed.checkpoint_writer(), nullptr);
  EXPECT_EQ(crashed.checkpoint_writer()->last_commit_step(), 2u);

  // Replay: the next four run_step calls re-execute logical steps 3..6 and
  // must be bit-identical to the reference run's steps 3..6, including the
  // re-aligned commit cadence (commits after logical steps 4 and 6).
  for (int i = 0; i < 4; ++i) {
    const rt::StepStats replayed = crashed.run_step();
    expect_replayed_step_equal(
        replayed, ref[static_cast<std::size_t>(i) + 2],
        "replayed logical step " + std::to_string(i + 3));
  }
  EXPECT_EQ(crashed.logical_step(), 6u);

  // Goodput ledger: one restore, two rolled-back steps, lost work > 0, and
  // goodput strictly below the uninterrupted run's.
  const ck::GoodputReport report = crashed.goodput();
  EXPECT_EQ(report.restores, 1u);
  EXPECT_EQ(report.rollback_steps, 2u);
  EXPECT_GT(report.restore_time, 0.0);
  EXPECT_GT(report.lost_work_time, 0.0);
  const ck::GoodputReport ref_report = reference.goodput();
  EXPECT_LT(report.goodput(), ref_report.goodput());
  EXPECT_GT(report.goodput(), 0.0);
}

TEST(CkptRecovery, CrashBeforeFirstCommitColdRestartsToStepZero) {
  rt::SessionConfig config =
      small_config(m::bert_config(2048, 2, 2), rt::Strategy::ssdtrain);
  config.checkpoint.every_steps = 100;  // never due in this short run
  f::FaultSpec quiet;
  quiet.kind = f::FaultKind::ssd_latency;
  quiet.latency = 1e-9;
  quiet.duration = 1e-9;
  config.faults.specs = {quiet};
  rt::TrainingSession session(config);

  session.run_steps(2);
  EXPECT_EQ(session.logical_step(), 2u);

  f::FaultSpec crash;
  crash.kind = f::FaultKind::stage_crash;
  crash.gpu = session.config().gpu_index;
  crash.duration = 0.001;
  crash.lose = f::CrashLoss::state;
  session.injector()->trigger(crash);

  const rt::StepStats stats = session.run_step();
  EXPECT_EQ(stats.rollback_steps, 3u);  // 2 committed-nothing steps + this
  EXPECT_EQ(session.logical_step(), 0u);
}

/// Cluster recovery: a destructive crash on one pipeline stage rolls every
/// stage back together (optimizer steps cannot be un-applied on survivors),
/// and the replayed steps match an uninterrupted cluster run.
TEST(CkptCluster, PipelineCrashRollsBackAllStagesAndReplays) {
  rt::ClusterConfig base;
  base.model = m::bert_config(2048, 2, 2);
  base.parallel.pipeline_parallel = 2;
  base.micro_batches = 2;
  base.checkpoint.every_steps = 2;
  base.faults = armed_but_quiet();

  rt::ClusterSession reference(base);
  std::vector<rt::ClusterStepStats> ref = reference.run_steps(6);

  rt::ClusterSession crashed(base);
  for (int i = 0; i < 3; ++i) {
    expect_replayed_step_equal(crashed.run_step().combined,
                               ref[static_cast<std::size_t>(i)].combined,
                               "pre-crash step " + std::to_string(i + 1));
  }

  f::FaultSpec crash;
  crash.kind = f::FaultKind::stage_crash;
  crash.gpu = 1;  // second pipeline stage
  crash.duration = 0.3 * ref[3].combined.step_time;
  crash.lose = f::CrashLoss::state;
  crashed.injector()->trigger(crash);

  const rt::ClusterStepStats crash_step = crashed.run_step();
  EXPECT_GT(crash_step.combined.restore_time, 0.0);
  EXPECT_EQ(crash_step.combined.rollback_steps, 2u);
  EXPECT_EQ(crashed.logical_step(), 2u);

  for (int i = 0; i < 4; ++i) {
    expect_replayed_step_equal(
        crashed.run_step().combined,
        ref[static_cast<std::size_t>(i) + 2].combined,
        "replayed logical step " + std::to_string(i + 3));
  }
  EXPECT_EQ(crashed.logical_step(), 6u);

  const ck::GoodputReport report = crashed.goodput();
  EXPECT_EQ(report.restores, 1u);
  EXPECT_GT(report.lost_work_time, 0.0);
}

/// The crash rule both sessions share: a lose=state crash restores only
/// when it hits a GPU that hosts a stage. An explicit node's spare GPU holds
/// no training state, so crashing it rolls nothing back.
TEST(CkptCluster, CrashOnGpuWithoutStageDoesNotRollBack) {
  rt::ClusterConfig config;
  config.model = m::bert_config(2048, 2, 2);
  config.parallel.pipeline_parallel = 2;
  config.micro_batches = 2;
  config.node = hw::catalog::cluster_node(3, 1);  // GPU 2 hosts no stage
  config.checkpoint.every_steps = 2;
  config.faults = armed_but_quiet();
  rt::ClusterSession session(std::move(config));
  session.run_steps(3);
  ASSERT_EQ(session.logical_step(), 3u);

  f::FaultSpec crash;
  crash.kind = f::FaultKind::stage_crash;
  crash.gpu = 2;
  crash.duration = 0.001;
  crash.lose = f::CrashLoss::state;
  session.injector()->trigger(crash);

  const rt::ClusterStepStats step = session.run_step();
  EXPECT_TRUE(session.injector()->pending_crashes().empty());
  EXPECT_EQ(step.combined.restore_time, 0.0);
  EXPECT_EQ(step.combined.rollback_steps, 0u);
  EXPECT_EQ(step.combined.lost_work_time, 0.0);
  EXPECT_EQ(session.logical_step(), 4u);
  session.run_step();
  EXPECT_EQ(session.logical_step(), 5u);

  const ck::GoodputReport report = session.goodput();
  EXPECT_EQ(report.restores, 0u);
  EXPECT_EQ(report.rollback_steps, 0u);
  EXPECT_EQ(report.lost_work_time, 0.0);
  EXPECT_EQ(report.checkpoints, 2u);  // after logical steps 2 and 4
}

}  // namespace
