#pragma once

/// \file recovery_ledger.hpp
/// RecoveryLedger — a session's checkpoint and crash-recovery driver. It
/// owns the CheckpointWriter and the commit cadence, consumes destructive
/// crashes at step boundaries (restore the newest committed checkpoint,
/// roll the logical step back), and keeps the goodput ledger: step time is
/// provisional until the next commit makes it useful, and a crash forfeits
/// it as lost work.
///
/// One rule for both sessions: a lose=state crash forces a restore only
/// when it hits a GPU that hosts a stage. Every stage GPU then restores
/// together — surviving ranks must roll back with the crashed one, since
/// committed optimizer steps cannot be un-applied in place.

#include <cstdint>
#include <memory>
#include <vector>

#include "ssdtrain/ckpt/policy.hpp"
#include "ssdtrain/fault/injector.hpp"
#include "ssdtrain/hw/node.hpp"
#include "ssdtrain/runtime/session_options.hpp"
#include "ssdtrain/runtime/step_stats.hpp"
#include "ssdtrain/sim/simulator.hpp"

namespace ssdtrain::ckpt {
class CheckpointWriter;  // ckpt/writer.hpp
}  // namespace ssdtrain::ckpt

namespace ssdtrain::runtime {

class RecoveryLedger {
 public:
  /// Session-constructor checks: the checkpoint policy is consistent, and
  /// a configured stage-crash with lose=state has a policy to recover
  /// from. Throws util::ContractViolation otherwise.
  static void validate(const SessionOptions& options);

  /// Builds the checkpoint writer when options.checkpoint is enabled;
  /// sessions then register their shards through writer()->add_stage.
  /// \p injector may be null.
  RecoveryLedger(hw::TrainingNode& node, const SessionOptions& options,
                 fault::FaultInjector* injector);
  ~RecoveryLedger();  // CheckpointWriter is incomplete here

  /// Null unless a checkpoint policy is configured.
  [[nodiscard]] ckpt::CheckpointWriter* writer() { return writer_.get(); }

  /// Post-step driver: consumes pending destructive crashes (restore +
  /// rollback of every GPU in \p stage_gpus when one hit a stage GPU) or
  /// commits a due checkpoint, charging the time to \p stats. Allocates
  /// only when a crash is pending.
  void finish_step(StepStats& stats, const std::vector<int>& stage_gpus);

  /// Steps durably completed: the committed step count after rollbacks.
  [[nodiscard]] std::uint64_t logical_step() const { return logical_step_; }

  /// Wall-clock decomposition so far (see ckpt::GoodputReport).
  [[nodiscard]] ckpt::GoodputReport goodput() const;

 private:
  /// The policy says a commit is due at this (post-step) boundary.
  [[nodiscard]] bool checkpoint_due() const;

  sim::Simulator& sim_;
  ckpt::CheckpointPolicy policy_;
  fault::FaultInjector* injector_;
  std::unique_ptr<ckpt::CheckpointWriter> writer_;
  std::uint64_t logical_step_ = 0;  ///< committed steps (rolls back)
  int steps_since_commit_ = 0;
  sim::TimePoint last_commit_wall_ = 0.0;
  util::Seconds auto_interval_ = 0.0;  ///< Young–Daly, once cost is known
  bool auto_cost_known_ = false;
  util::Seconds committed_useful_ = 0.0;
  util::Seconds provisional_useful_ = 0.0;
  util::Seconds checkpoint_time_total_ = 0.0;
  util::Seconds restore_time_total_ = 0.0;
  util::Seconds lost_work_total_ = 0.0;
  std::uint64_t restores_ = 0;
  std::uint64_t rollback_total_ = 0;
};

}  // namespace ssdtrain::runtime
