#include "ssdtrain/runtime/session.hpp"

#include "ssdtrain/ckpt/writer.hpp"
#include "ssdtrain/runtime/program_cache.hpp"
#include "ssdtrain/util/check.hpp"

namespace ssdtrain::runtime {

std::string_view to_string(Strategy strategy) {
  switch (strategy) {
    case Strategy::keep_in_gpu:
      return "keep-in-gpu";
    case Strategy::ssdtrain:
      return "ssdtrain";
    case Strategy::ssdtrain_cpu:
      return "ssdtrain-cpu";
    case Strategy::recompute_full:
      return "recompute-full";
    case Strategy::ssdtrain_recompute:
      return "ssdtrain+recompute";
  }
  return "?";
}

Strategy strategy_from(std::string_view name) {
  for (Strategy s :
       {Strategy::keep_in_gpu, Strategy::ssdtrain, Strategy::ssdtrain_cpu,
        Strategy::recompute_full, Strategy::ssdtrain_recompute}) {
    if (to_string(s) == name) return s;
  }
  util::check(false, "unknown strategy: " + std::string(name));
  return Strategy::keep_in_gpu;  // unreachable
}

TrainingSession::~TrainingSession() = default;

TrainingSession::TrainingSession(SessionConfig config)
    : config_(std::move(config)) {
  config_.parallel.validate();
  util::expects(config_.parallel.pipeline_parallel == 1,
                "TrainingSession runs the whole model on one GPU and cannot "
                "pipeline it: use ClusterSession for pipeline_parallel > 1");
  RecoveryLedger::validate(config_);
  StageSpec spec;
  spec.gpu = config_.gpu_index;
  spec.planner_model = config_.model;
  // Computed once: the schedule is part of the session's identity (a
  // recorded StepProgram is valid only for this exact command sequence),
  // and replayed steps must not allocate for it.
  spec.schedule = sched::grad_accum_schedule(config_.micro_batches);
  if (config_.program_cache != nullptr && config_.use_replay) {
    spec.cache_key = session_program_key(config_);
  }
  node_ = std::make_unique<hw::TrainingNode>(config_.node);
  if (config_.faults.enabled()) {
    injector_ = std::make_unique<fault::FaultInjector>(node_->simulator(),
                                                       config_.faults);
    injector_->bind_node(*node_);
  }
  if (offloads(config_.strategy) && config_.install_malloc_hook) {
    malloc_hook_ = std::make_unique<core::CudaMallocHookLibrary>();
    malloc_hook_->install(*node_->gpu(config_.gpu_index).allocator);
    spec.malloc_hook = malloc_hook_.get();
  }
  stage_ = std::make_unique<StageRuntime>(*node_, config_, injector_.get(),
                                          std::move(spec));
  reserve_pinned_pool(*node_, config_.strategy, stage_->offload_budget());

  stage_gpus_ = {config_.gpu_index};
  ledger_ = std::make_unique<RecoveryLedger>(*node_, config_, injector_.get());
  if (ckpt::CheckpointWriter* writer = ledger_->writer()) {
    // One shard: this GPU's fp16 weights plus the unpartitioned fp32
    // optimizer state (momentum + master copy, 12 B per 2-byte parameter).
    const util::Bytes weights =
        stage_->model().parameter_bytes(config_.parallel.tensor_parallel);
    writer->add_stage(config_.gpu_index, 0, weights, 6 * weights);
  }
}

StepStats TrainingSession::run_step() {
  std::uint64_t invalidations = 0;
  if (injector_ != nullptr &&
      injector_->structural_epoch() != fault_epoch_seen_) {
    fault_epoch_seen_ = injector_->structural_epoch();
    // Structural fault since the last boundary: the next step re-traces.
    // Timing-only faults never reach this path.
    if (stage_->invalidate_after_fault()) ++invalidations;
  }
  StageRuntime& stage = *stage_;
  StepStats stats;
  switch (stage.begin_step(/*may_record=*/true)) {
    case StageRuntime::Mode::replay:
      stats = stage.executor().replay(*stage.program(), stage.schedule());
      break;
    case StageRuntime::Mode::record:
      // Trace through the module tree while compiling the program; every
      // later step replays it.
      stats = stage.executor().record_step(stage.model(), stage.schedule(),
                                           stage.start_recording());
      stage.seal_recording();
      break;
    case StageRuntime::Mode::trace:
      stats = stage.executor().run_step(stage.model(), stage.schedule());
      break;
  }
  stage.add_offloader_deltas(stats);
  stats.program_invalidations = invalidations;
  ledger_->finish_step(stats, stage_gpus_);
  return stats;
}

std::vector<StepStats> TrainingSession::run_steps(int n) {
  util::expects(n >= 1, "need at least one step");
  std::vector<StepStats> out;
  out.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) out.push_back(run_step());
  return out;
}

}  // namespace ssdtrain::runtime
