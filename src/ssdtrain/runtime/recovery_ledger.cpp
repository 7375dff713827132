#include "ssdtrain/runtime/recovery_ledger.hpp"

#include <algorithm>

#include "ssdtrain/ckpt/writer.hpp"
#include "ssdtrain/util/check.hpp"

namespace ssdtrain::runtime {

void RecoveryLedger::validate(const SessionOptions& options) {
  options.checkpoint.validate();
  for (const fault::FaultSpec& spec : options.faults.specs) {
    util::expects(!spec.rolls_back() || options.checkpoint.enabled(),
                  "--faults: stage-crash lose=state is only recoverable "
                  "from a committed checkpoint — configure a checkpoint "
                  "policy (--ckpt-interval N or --ckpt-auto with --mtbf) "
                  "or drop lose=state");
  }
}

RecoveryLedger::RecoveryLedger(hw::TrainingNode& node,
                               const SessionOptions& options,
                               fault::FaultInjector* injector)
    : sim_(node.simulator()), policy_(options.checkpoint), injector_(injector) {
  if (policy_.enabled()) {
    writer_ = std::make_unique<ckpt::CheckpointWriter>(node, options.use_gds);
  }
}

RecoveryLedger::~RecoveryLedger() = default;

bool RecoveryLedger::checkpoint_due() const {
  if (policy_.every_steps > 0) {
    return steps_since_commit_ >= policy_.every_steps;
  }
  const sim::TimePoint now = sim_.now();
  if (policy_.every_seconds > 0.0) {
    return now - last_commit_wall_ >= policy_.every_seconds;
  }
  if (policy_.auto_interval) {
    // Young–Daly needs the checkpoint cost; the first boundary commits
    // unconditionally to measure it, then sqrt(2*C*MTBF) takes over.
    if (!auto_cost_known_) return true;
    return now - last_commit_wall_ >= auto_interval_;
  }
  return false;
}

void RecoveryLedger::finish_step(StepStats& stats,
                                 const std::vector<int>& stage_gpus) {
  if (injector_ != nullptr && !injector_->pending_crashes().empty()) {
    sim::TimePoint earliest = 0.0;
    bool hit = false;
    for (const fault::CrashRecord& crash : injector_->take_crashes()) {
      // A GPU without a stage holds no training state to lose.
      if (std::find(stage_gpus.begin(), stage_gpus.end(), crash.gpu) ==
          stage_gpus.end()) {
        continue;
      }
      earliest = hit ? std::min(earliest, crash.at) : crash.at;
      hit = true;
    }
    if (hit) {
      util::check(writer_ != nullptr,
                  "stage-crash lose=state fired (via trigger) but no "
                  "checkpoint policy is configured — enable "
                  "--ckpt-interval/--ckpt-auto before injecting "
                  "destructive crashes");
      // The crash wiped this step's work and everything since the last
      // commit: restore the newest committed checkpoint over the same
      // contended links and roll the logical step counter back to it.
      const util::Seconds lost =
          std::max(0.0, earliest - writer_->last_commit_time());
      const ckpt::RestoreResult restore = writer_->restore(stage_gpus);
      stats.restore_time = restore.time;
      stats.rollback_steps = logical_step_ + 1 - restore.step;
      stats.lost_work_time = lost;
      stats.step_time += restore.time;
      ++restores_;
      restore_time_total_ += restore.time;
      lost_work_total_ += lost;
      rollback_total_ += stats.rollback_steps;
      provisional_useful_ = 0.0;  // forfeited with the crash
      logical_step_ = restore.step;
      steps_since_commit_ = 0;
      last_commit_wall_ = sim_.now();
      return;
    }
  }

  ++logical_step_;
  provisional_useful_ += stats.step_time;
  if (writer_ == nullptr) return;
  ++steps_since_commit_;
  if (!checkpoint_due()) return;

  const ckpt::CheckpointCommit commit = writer_->write(logical_step_);
  stats.checkpoint_time = commit.time;
  stats.checkpoint_bytes = commit.bytes;
  stats.step_time += commit.time;
  checkpoint_time_total_ += commit.time;
  committed_useful_ += provisional_useful_;
  provisional_useful_ = 0.0;
  steps_since_commit_ = 0;
  last_commit_wall_ = commit.committed_at;
  if (policy_.auto_interval && !auto_cost_known_) {
    auto_interval_ = ckpt::young_daly_interval(commit.time, policy_.mtbf);
    auto_cost_known_ = true;
  }
}

ckpt::GoodputReport RecoveryLedger::goodput() const {
  ckpt::GoodputReport report;
  report.wall_clock = sim_.now();
  report.useful_time = committed_useful_ + provisional_useful_;
  report.checkpoint_time = checkpoint_time_total_;
  report.restore_time = restore_time_total_;
  report.lost_work_time = lost_work_total_;
  report.checkpoints = writer_ != nullptr ? writer_->committed_count() : 0;
  report.restores = restores_;
  report.rollback_steps = rollback_total_;
  report.checkpoint_bytes = writer_ != nullptr ? writer_->bytes_written() : 0;
  return report;
}

}  // namespace ssdtrain::runtime
