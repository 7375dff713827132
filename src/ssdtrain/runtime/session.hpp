#pragma once

/// \file session.hpp
/// TrainingSession — the top-level user-facing API. It assembles the
/// simulated machine, the model, the strategy (keep everything / SSDTrain
/// offloading to SSD or host memory / layerwise full recomputation), the
/// adaptive planner, and the schedule, then runs training steps and returns
/// per-step measurements. This is the entry point the examples and all
/// paper-figure benches use.
///
/// The session is one StageRuntime (the whole model on one GPU of the node)
/// plus one RecoveryLedger, driven by whole-step Executor calls. Pipelines
/// run in ClusterSession, which keeps its own driver: it places stages on
/// GPUs 0..pp-1 of a cluster node and sends TP all-reduces as NVLink flows,
/// where this session models them in closed form.

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "ssdtrain/core/malloc_hook.hpp"
#include "ssdtrain/fault/injector.hpp"
#include "ssdtrain/hw/catalog.hpp"
#include "ssdtrain/hw/node.hpp"
#include "ssdtrain/runtime/recovery_ledger.hpp"
#include "ssdtrain/runtime/session_options.hpp"
#include "ssdtrain/runtime/stage_runtime.hpp"
#include "ssdtrain/runtime/step_stats.hpp"

namespace ssdtrain::runtime {

/// Runs the whole model on one GPU, so parallel.pipeline_parallel must be 1
/// (pipelines need ClusterSession).
struct SessionConfig : SessionOptions {
  hw::NodeConfig node = hw::catalog::table2_evaluation_node();
  /// The paper instruments the GPU attached to the 4-SSD array.
  int gpu_index = hw::catalog::table2_measured_gpu;
};

class TrainingSession {
 public:
  explicit TrainingSession(SessionConfig config);
  ~TrainingSession();
  TrainingSession(const TrainingSession&) = delete;
  TrainingSession& operator=(const TrainingSession&) = delete;

  /// Runs one step and returns its measurements.
  StepStats run_step();

  /// Runs \p n steps; returns one StepStats per step.
  std::vector<StepStats> run_steps(int n);

  [[nodiscard]] const SessionConfig& config() const { return config_; }
  [[nodiscard]] hw::TrainingNode& node() { return *node_; }
  [[nodiscard]] modules::Model& model() { return stage_->model(); }
  [[nodiscard]] Executor& executor() { return stage_->executor(); }
  /// Null unless the strategy uses the tensor cache.
  [[nodiscard]] core::TensorCache* cache() { return stage_->cache(); }
  [[nodiscard]] core::Offloader* offloader() { return stage_->offloader(); }
  /// The adaptive planner's decision (engaged for offloading strategies).
  [[nodiscard]] const std::optional<core::OffloadPlan>& plan() const {
    return stage_->plan();
  }

  /// The recorded step program, once the first step has run with replay
  /// enabled (null before that, after a recording failure, or with
  /// use_replay = false).
  [[nodiscard]] const StepProgram* program() const {
    return stage_->program();
  }

  /// True when the active program came from the program cache rather than
  /// this session's own trace (it never traced).
  [[nodiscard]] bool program_from_cache() const {
    return stage_->program_from_cache();
  }

  /// Null unless config.faults has specs. Benches and tests use it to
  /// trigger structural faults at step boundaries and read the fault log.
  [[nodiscard]] fault::FaultInjector* injector() { return injector_.get(); }

  /// Null unless config.checkpoint is enabled. Exposes commit/restore
  /// telemetry, the trace timeline, and the torn-blob test hook.
  [[nodiscard]] ckpt::CheckpointWriter* checkpoint_writer() {
    return ledger_->writer();
  }

  /// Steps durably completed: committed step count after rollbacks. Equals
  /// the number of run_step calls only when no crash rolled work back.
  [[nodiscard]] std::uint64_t logical_step() const {
    return ledger_->logical_step();
  }

  /// Wall-clock decomposition so far: useful step time vs checkpoint,
  /// restore, and lost-work overhead. All zeros (with goodput 1.0 once
  /// steps ran) without a checkpoint policy or crashes.
  [[nodiscard]] ckpt::GoodputReport goodput() { return ledger_->goodput(); }

 private:
  SessionConfig config_;
  std::unique_ptr<hw::TrainingNode> node_;
  std::unique_ptr<core::CudaMallocHookLibrary> malloc_hook_;
  std::unique_ptr<StageRuntime> stage_;
  std::unique_ptr<fault::FaultInjector> injector_;
  /// Last structural epoch acted on; a moved epoch at a step boundary
  /// discards the recorded program (structural faults re-trace, timing
  /// faults replay).
  std::uint64_t fault_epoch_seen_ = 0;
  std::vector<int> stage_gpus_;  ///< {gpu_index}, for the ledger
  std::unique_ptr<RecoveryLedger> ledger_;
};

}  // namespace ssdtrain::runtime
