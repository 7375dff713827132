#include "ssdtrain/runtime/stage_runtime.hpp"

#include <algorithm>
#include <string>
#include <utility>

#include "ssdtrain/util/check.hpp"
#include "ssdtrain/util/logging.hpp"

namespace ssdtrain::runtime {

StageRuntime::StageRuntime(hw::TrainingNode& node,
                           const SessionOptions& options,
                           fault::FaultInjector* injector, StageSpec spec)
    : node_(node),
      options_(options),
      injector_(injector),
      gpu_(spec.gpu),
      chunk_(spec.chunk),
      schedule_(std::move(spec.schedule)),
      cache_key_(std::move(spec.cache_key)) {
  model_ = modules::build_model(options_.model, spec.slice);

  spec.executor.gpu_index = gpu_;
  spec.executor.recompute = recomputes(options_.strategy);
  executor_ = std::make_unique<Executor>(node_, options_.parallel,
                                         std::move(spec.executor));
  if (!offloads(options_.strategy)) return;

  std::unique_ptr<core::OffloadTier> tier;
  util::BytesPerSecond target_bw = 0.0;
  if (offloads_to_ssd(options_.strategy)) {
    util::expects(node_.has_array(gpu_),
                  "SSDTrain strategy needs an SSD array on GPU " +
                      std::to_string(gpu_));
    tier = std::make_unique<core::SsdTier>(node_, gpu_, options_.use_gds,
                                           spec.malloc_hook);
    target_bw = ssd_target_bandwidth();
  } else {
    tier = std::make_unique<core::HostTier>(node_, gpu_);
    target_bw = std::min(hw::effective_bandwidth(node_.config().pcie),
                         node_.config().dram_bandwidth);
  }
  core::OffloaderConfig offload_cfg;
  offload_cfg.store_workers = options_.store_workers;
  offload_cfg.load_workers = options_.load_workers;
  offload_cfg.fault = options_.fault_policy;
  offload_cfg.fault.injector = injector_;
  offloader_ = std::make_unique<core::Offloader>(node_, executor_->factory(),
                                                 std::move(tier), offload_cfg);

  // Adaptive planning (Fig. 3): set the offload amount from the stage's
  // compute/activation profile, the GPU throughput, and the target's
  // bandwidth. The planner model is already this stage's share of the
  // pipeline, so the planner must not divide by pp again.
  planner_inputs_.model = std::move(spec.planner_model);
  planner_inputs_.parallel = options_.parallel;
  planner_inputs_.parallel.pipeline_parallel = 1;
  planner_inputs_.peak_in_flight = spec.peak_in_flight;
  planner_inputs_.gpu = node_.config().gpu;
  planner_inputs_.target_write_bandwidth = target_bw;
  planner_inputs_.micro_batches = options_.micro_batches;
  plan_ = core::plan_offload(planner_inputs_);

  core::TensorCacheConfig cache_cfg = core::make_cache_config(*plan_);
  if (options_.budget_override) {
    cache_cfg.offload_budget = *options_.budget_override;
  }
  cache_cfg.forwarding = options_.forwarding;
  cache_cfg.prefetch_lookahead = options_.prefetch_lookahead;
  cache_ = std::make_unique<core::TensorCache>(node_.simulator(), *offloader_,
                                               cache_cfg);
  cache_->install_hooks(*model_);
  executor_->attach_cache(cache_.get());
}

StageRuntime::~StageRuntime() {
  // A recording step that threw left its recorder installed. Seal it before
  // any member dies: the tensors they free reach the recorder, which reads
  // the cache, and the cache dies before the executor.
  if (executor_->active_recorder() != nullptr) {
    (void)executor_->finish_recording();
  }
}

util::Bytes StageRuntime::offload_budget() const {
  return cache_ != nullptr ? cache_->config().offload_budget : 0;
}

util::BytesPerSecond StageRuntime::ssd_target_bandwidth() const {
  return std::min(node_.array(gpu_).nominal_write_bandwidth(),
                  hw::effective_bandwidth(node_.config().pcie));
}

bool StageRuntime::cache_usable() const {
  return options_.program_cache != nullptr && options_.use_replay &&
         (injector_ == nullptr || injector_->structural_epoch() == 0);
}

void StageRuntime::begin_step(bool may_record) {
  next_command_ = 0;
  pre_optimizer_.reset();
  step_end_.reset();
  if (program_ == nullptr && !replay_dead_ && cache_usable()) {
    std::shared_ptr<const StepProgram> cached =
        options_.program_cache->lookup(cache_key_);
    // An entry that does not match this stage's schedule or cache use is
    // a key collision or stale entry that slipped past the fingerprint
    // (should not happen; belt and braces) — treat it as a miss.
    if (cached != nullptr && cached->replayable &&
        cached->schedule == schedule_ &&
        cached->uses_cache == (cache_ != nullptr)) {
      executor_->materialize_weights(*cached);
      program_ = std::move(cached);
      program_from_cache_ = true;
    }
  }
  if (program_ != nullptr) {
    mode_ = Mode::replay;
    baseline_ = executor_->begin_replay_step(*program_, schedule_);
    return;
  }
  mode_ = may_record && options_.use_replay && !replay_dead_ ? Mode::record
                                                             : Mode::trace;
  if (mode_ == Mode::record) executor_->start_recording(schedule_);
  baseline_ = executor_->begin_trace_step();
}

void StageRuntime::run_command(std::size_t index) {
  util::expects(index == next_command_ && index < schedule_.size(),
                "stage commands must run once each, in schedule order");
  ++next_command_;
  if (mode_ == Mode::replay) {
    executor_->replay_segment(*program_, index, pre_optimizer_);
  } else {
    executor_->exec_command(*model_, schedule_, index, pre_optimizer_);
  }
}

void StageRuntime::mark_step_end() {
  step_end_ = executor_->record_step_end();
  if (StepRecorder* recorder = executor_->active_recorder()) {
    recorder->enter_sim();
  }
}

StepStats StageRuntime::collect_step() {
  if (StepRecorder* recorder = executor_->active_recorder()) {
    recorder->exit_sim();
  }
  StepStats stats =
      executor_->collect_step(baseline_, pre_optimizer_, step_end_);
  if (offloader_ == nullptr) return stats;
  stats.offloader_totals = offloader_->stats();
  stats.loaded_bytes = stats.offloader_totals.bytes_loaded;
  const core::OffloaderStats& t = stats.offloader_totals;
  stats.io_retries = t.io_retries - last_offloader_.io_retries;
  stats.io_failures = t.io_failures - last_offloader_.io_failures;
  stats.recompute_fallbacks =
      t.recompute_fallbacks - last_offloader_.recompute_fallbacks;
  stats.fault_stall_time =
      (t.retry_backoff_time - last_offloader_.retry_backoff_time) +
      (t.fault_extra_latency - last_offloader_.fault_extra_latency) +
      (t.recompute_fallback_time - last_offloader_.recompute_fallback_time);
  last_offloader_ = t;
  return stats;
}

void StageRuntime::seal_recording() {
  if (mode_ != Mode::record) return;
  std::shared_ptr<StepProgram> recording = executor_->finish_recording();
  if (recording->replayable) {
    // Checked again at seal time: a structural fault may have fired
    // mid-step.
    if (cache_usable()) options_.program_cache->store(cache_key_, recording);
    program_ = std::move(recording);
  } else {
    replay_dead_ = true;
    util::log_warning("step replay disabled (gpu " + std::to_string(gpu_) +
                      ", chunk " + std::to_string(chunk_) +
                      "): " + recording->invalid_reason);
  }
}

void StageRuntime::end_step() {
  if (mode_ == Mode::replay) {
    executor_->end_replay_step();
  } else {
    executor_->end_trace_step();
  }
}

bool StageRuntime::invalidate_after_fault() {
  const bool dropped = program_ != nullptr;
  program_.reset();
  if (plan_.has_value() && !options_.budget_override &&
      offloads_to_ssd(options_.strategy)) {
    // A dropped RAID member shrinks the array's sustainable write
    // bandwidth: re-plan and install the rebalanced budget into the live
    // cache.
    planner_inputs_.target_write_bandwidth = ssd_target_bandwidth();
    plan_ = core::plan_offload(planner_inputs_);
    cache_->set_offload_budget(core::make_cache_config(*plan_).offload_budget);
  }
  return dropped;
}

void reserve_pinned_pool(hw::TrainingNode& node, Strategy strategy,
                         util::Bytes offload_budget) {
  if (strategy != Strategy::ssdtrain_cpu) return;
  const auto pool = static_cast<util::Bytes>(
      static_cast<double>(offload_budget) * 1.25);
  node.pinned_pool().resize(std::max<util::Bytes>(pool, util::gib(1)));
}

}  // namespace ssdtrain::runtime
