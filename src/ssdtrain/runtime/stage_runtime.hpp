#pragma once

/// \file stage_runtime.hpp
/// StageRuntime — one stage of SSDTrain's per-GPU composition (paper §III):
/// a model (slice), its executor, and, for the offloading strategies, the
/// offloader and tensor cache sized by the adaptive planner. It also owns
/// the stage's program lifecycle: the command schedule its StepProgram is
/// recorded against, the program-cache lookup and publication, and the
/// discard after a structural fault.
///
/// TrainingSession drives one StageRuntime with whole-step Executor calls;
/// ClusterSession drives one per virtual stage, command by command.

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "ssdtrain/core/malloc_hook.hpp"
#include "ssdtrain/core/offloader.hpp"
#include "ssdtrain/core/planner.hpp"
#include "ssdtrain/core/tensor_cache.hpp"
#include "ssdtrain/fault/injector.hpp"
#include "ssdtrain/hw/node.hpp"
#include "ssdtrain/modules/model.hpp"
#include "ssdtrain/runtime/executor.hpp"
#include "ssdtrain/runtime/program_cache.hpp"
#include "ssdtrain/runtime/session_options.hpp"
#include "ssdtrain/runtime/step_program.hpp"
#include "ssdtrain/runtime/step_stats.hpp"
#include "ssdtrain/sched/schedule.hpp"

namespace ssdtrain::runtime {

/// Where one stage sits and what its planner and program see.
struct StageSpec {
  int gpu = 0;
  int chunk = 0;  ///< model chunk on this GPU (interleaved pipelines)
  modules::StageSlice slice;  ///< default: the whole model
  /// The model the planner profiles: the options' model for a whole-model
  /// stage, the slice's layers for a pipeline stage.
  modules::ModelConfig planner_model;
  /// Peak micro-batches in flight on this stage (0 = the single-stage
  /// budget rule; see core::PlannerInputs).
  int peak_in_flight = 0;
  /// Placement-specific executor options; gpu_index and recompute are
  /// filled in from the stage's GPU and the strategy.
  ExecutorOptions executor;
  /// Shared GDS registration library for this GPU. Not owned: a cluster
  /// shares one per GPU across its chunks.
  core::CudaMallocHookLibrary* malloc_hook = nullptr;
  /// The command sequence the stage's StepProgram is recorded against.
  std::vector<sched::Command> schedule;
  /// Program-cache fingerprint (unused without a cache).
  ProgramKey cache_key;
};

class StageRuntime {
 public:
  /// How the stage executes the coming step.
  enum class Mode : std::uint8_t { trace, record, replay };

  /// \p options and \p injector (may be null) must outlive the stage.
  StageRuntime(hw::TrainingNode& node, const SessionOptions& options,
               fault::FaultInjector* injector, StageSpec spec);

  [[nodiscard]] int gpu() const { return gpu_; }
  [[nodiscard]] int chunk() const { return chunk_; }
  [[nodiscard]] modules::Model& model() { return *model_; }
  [[nodiscard]] Executor& executor() { return *executor_; }
  /// Null unless the strategy offloads.
  [[nodiscard]] core::Offloader* offloader() { return offloader_.get(); }
  [[nodiscard]] core::TensorCache* cache() { return cache_.get(); }
  [[nodiscard]] const std::optional<core::OffloadPlan>& plan() const {
    return plan_;
  }
  /// The cache's offload budget as built (0 without a cache).
  [[nodiscard]] util::Bytes offload_budget() const;
  [[nodiscard]] const std::vector<sched::Command>& schedule() const {
    return schedule_;
  }
  /// The active program: this stage's sealed recording or a program-cache
  /// hit. Null before either, after a non-replayable recording, or without
  /// replay.
  [[nodiscard]] const StepProgram* program() const { return program_.get(); }
  [[nodiscard]] bool program_from_cache() const { return program_from_cache_; }

  /// Picks this step's mode. A stage without a program first consults the
  /// program cache; a hit materializes the cached weight set and replays
  /// from step 0 without ever tracing. A stage still without a program
  /// records when \p may_record, and traces otherwise.
  Mode begin_step(bool may_record);
  /// A fresh program for this step's recording (Mode::record only).
  StepProgram& start_recording();
  /// Promotes the finished recording to the active program (publishing it
  /// to the program cache while usable), or, when it came back
  /// non-replayable, leaves the stage on the trace path for good.
  void seal_recording();

  /// Reacts to a structural fault: discards the recorded program (its
  /// pack/load branch decisions may no longer match live offloader state)
  /// and re-plans against the degraded array. True when a program was
  /// discarded.
  bool invalidate_after_fault();

  /// Fills the offloader totals and this step's retry, failure, fallback
  /// and stall deltas into \p stats.
  void add_offloader_deltas(StepStats& stats);

 private:
  /// A cache is configured and no structural fault has fired yet: after
  /// one, the live machine no longer matches the fingerprint, so
  /// clean-machine entries must be neither used nor created.
  [[nodiscard]] bool cache_usable() const;
  /// Sustained write bandwidth of the stage's SSD array path.
  [[nodiscard]] util::BytesPerSecond ssd_target_bandwidth() const;

  hw::TrainingNode& node_;
  const SessionOptions& options_;
  fault::FaultInjector* injector_;
  int gpu_ = 0;
  int chunk_ = 0;
  std::unique_ptr<modules::Model> model_;
  std::unique_ptr<Executor> executor_;
  std::unique_ptr<core::Offloader> offloader_;
  std::unique_ptr<core::TensorCache> cache_;
  std::optional<core::OffloadPlan> plan_;
  /// Kept for post-fault rebalancing (offloading stages).
  core::PlannerInputs planner_inputs_;
  core::OffloaderStats last_offloader_;  ///< snapshot for per-step deltas
  std::vector<sched::Command> schedule_;
  std::shared_ptr<const StepProgram> program_;
  /// In-flight recording; promoted to program_ when it seals replayable.
  std::shared_ptr<StepProgram> recording_;
  ProgramKey cache_key_;
  bool program_from_cache_ = false;
  bool replay_dead_ = false;  ///< a recording came back non-replayable
};

/// Sizes the node's shared pinned pool for the CPU offloader (a no-op for
/// the other strategies): the planned offload budget of every stage plus
/// headroom for in-flight transfers, at least 1 GiB (paper §III-A).
void reserve_pinned_pool(hw::TrainingNode& node, Strategy strategy,
                         util::Bytes offload_budget);

}  // namespace ssdtrain::runtime
