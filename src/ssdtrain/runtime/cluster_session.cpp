#include "ssdtrain/runtime/cluster_session.hpp"

#include <algorithm>
#include <utility>

#include "ssdtrain/ckpt/writer.hpp"
#include "ssdtrain/parallel/collectives.hpp"
#include "ssdtrain/runtime/program_cache.hpp"
#include "ssdtrain/util/check.hpp"
#include "ssdtrain/util/label.hpp"

namespace ssdtrain::runtime {

/// One GPU: its expanded command stream (compute plus send/recv
/// annotations) and the per-GPU shared pieces — the malloc-hook library its
/// chunk offloaders share, the DP-fabric port, and the bubble bookkeeping.
struct ClusterSession::GpuLane {
  std::vector<sched::Command> stage_stream;  ///< compute-only
  std::vector<sched::Command> commands;      ///< with boundary transfers
  std::unique_ptr<core::CudaMallocHookLibrary> malloc_hook;
  util::Bytes param_bytes = 0;  ///< all chunks' parameters on this GPU
  sim::BandwidthNetwork::ResourceId dp_port = 0;

  // Per-step driver state.
  std::size_t cursor = 0;  ///< next commands index
  sim::CompletionPtr pipeline_end;
  util::Seconds busy_start = 0.0;
  util::Seconds busy_at_end = 0.0;
};

namespace {

void accumulate(core::TensorCacheStats& into,
                const core::TensorCacheStats& from) {
  into.packs += from.packs;
  into.unpacks += from.unpacks;
  into.passthrough_weight += from.passthrough_weight;
  into.passthrough_cpu += from.passthrough_cpu;
  into.passthrough_small += from.passthrough_small;
  into.dedup_hits += from.dedup_hits;
  into.offload_started += from.offload_started;
  into.kept_budget += from.kept_budget;
  into.kept_backward += from.kept_backward;
  into.kept_scope += from.kept_scope;
  into.kept_offloader_refused += from.kept_offloader_refused;
  into.kept_store_failed += from.kept_store_failed;
  into.forwards += from.forwards;
  into.prefetch_loads += from.prefetch_loads;
  into.miss_loads += from.miss_loads;
  into.wasted_stores += from.wasted_stores;
  into.releases += from.releases;
  into.offloaded_bytes += from.offloaded_bytes;
  into.kept_bytes += from.kept_bytes;
}

void accumulate(core::OffloaderStats& into, const core::OffloaderStats& from) {
  into.stores += from.stores;
  into.loads += from.loads;
  into.bytes_stored += from.bytes_stored;
  into.bytes_loaded += from.bytes_loaded;
  into.releases += from.releases;
  into.failed_stores += from.failed_stores;
  into.io_retries += from.io_retries;
  into.io_failures += from.io_failures;
  into.store_faults += from.store_faults;
  into.load_faults += from.load_faults;
  into.recompute_fallbacks += from.recompute_fallbacks;
  into.retry_backoff_time += from.retry_backoff_time;
  into.fault_extra_latency += from.fault_extra_latency;
  into.recompute_fallback_time += from.recompute_fallback_time;
}

/// Cluster-level aggregate. Byte/FLOP counters are per-context and sum;
/// allocator peaks, stream busy time, live weights, and SSD counters are
/// per-GPU (every chunk on a GPU reports the same machine-level value), so
/// only chunk 0 of each GPU contributes, with peaks reduced by max.
StepStats merge_cluster_stats(const std::vector<StageStepStats>& stages,
                              int gpus) {
  StepStats out;
  out.ssd_write_amplification = 0.0;
  for (const StageStepStats& stage : stages) {
    const StepStats& st = stage.stats;
    out.step_time = std::max(out.step_time, st.step_time);
    out.drain_time = std::max(out.drain_time, st.drain_time);
    out.optimizer_time = std::max(out.optimizer_time, st.optimizer_time);
    out.algorithmic_flops += st.algorithmic_flops;
    out.executed_flops += st.executed_flops;
    out.offloaded_bytes += st.offloaded_bytes;
    out.loaded_bytes += st.loaded_bytes;
    out.io_retries += st.io_retries;
    out.io_failures += st.io_failures;
    out.recompute_fallbacks += st.recompute_fallbacks;
    out.fault_stall_time += st.fault_stall_time;
    accumulate(out.cache, st.cache);
    accumulate(out.offloader_totals, st.offloader_totals);
    if (stage.chunk == 0) {
      out.activation_peak = std::max(out.activation_peak, st.activation_peak);
      out.total_peak = std::max(out.total_peak, st.total_peak);
      out.weights_live += st.weights_live;
      out.compute_busy += st.compute_busy;
      out.ssd_host_written += st.ssd_host_written;
      out.ssd_write_amplification =
          std::max(out.ssd_write_amplification, st.ssd_write_amplification);
    }
  }
  if (out.ssd_write_amplification == 0.0) out.ssd_write_amplification = 1.0;
  if (out.step_time > 0.0) {
    out.model_throughput = out.algorithmic_flops / out.step_time;
    out.compute_utilization =
        out.compute_busy / (static_cast<double>(gpus) * out.step_time);
    out.required_write_bandwidth =
        static_cast<double>(out.offloaded_bytes) / (out.step_time / 2.0);
  }
  return out;
}

}  // namespace

ClusterSession::ClusterSession(ClusterConfig config)
    : config_(std::move(config)) {
  config_.parallel.validate();
  RecoveryLedger::validate(config_);
  util::expects(config_.micro_batches >= 1, "need at least one micro-batch");
  util::expects(config_.virtual_stages >= 1,
                "need at least one virtual stage");
  const int pp = config_.parallel.pipeline_parallel;
  const int v = config_.virtual_stages;
  const int vs_count = pp * v;
  util::expects(config_.model.layers >= vs_count &&
                    config_.model.layers % vs_count == 0,
                "transformer layers must divide evenly across the "
                "pipeline's virtual stages");

  hw::NodeConfig node_cfg =
      config_.node.has_value()
          ? *config_.node
          : hw::catalog::cluster_node(pp, config_.ssds_per_gpu);
  util::expects(node_cfg.gpu_count >= pp,
                "node needs one GPU per pipeline stage");
  node_ = std::make_unique<hw::TrainingNode>(node_cfg);
  if (config_.faults.enabled()) {
    injector_ = std::make_unique<fault::FaultInjector>(node_->simulator(),
                                                       config_.faults);
    injector_->bind_node(*node_);
  }

  ideal_bubble_ = sched::ideal_bubble_fraction_interleaved(
      config_.micro_batches, pp, v);
  // One boundary tensor: the {seq, micro_batch, hidden} fp16 hidden state.
  boundary_bytes_ = config_.model.seq * config_.model.micro_batch *
                    config_.model.hidden * 2;

  lanes_.reserve(static_cast<std::size_t>(pp));
  for (int s = 0; s < pp; ++s) {
    GpuLane lane;
    std::vector<bool> first_virtual(static_cast<std::size_t>(v));
    std::vector<bool> last_virtual(static_cast<std::size_t>(v));
    for (int c = 0; c < v; ++c) {
      first_virtual[static_cast<std::size_t>(c)] = c * pp + s == 0;
      last_virtual[static_cast<std::size_t>(c)] = c * pp + s == vs_count - 1;
    }
    lane.stage_stream = sched::stage_schedule(
        config_.schedule, config_.micro_batches, pp, s, v);
    lane.commands = sched::expand_cluster_commands(lane.stage_stream,
                                                   first_virtual,
                                                   last_virtual);
    if (config_.parallel.data_parallel > 1) {
      lane.dp_port = node_->network().add_resource(
          util::label("gpu", s) + ":dp_port", config_.dp_fabric_bandwidth);
      if (injector_ != nullptr) injector_->bind_dp_resource(s, lane.dp_port);
    }
    if (offloads(config_.strategy) && config_.install_malloc_hook) {
      lane.malloc_hook = std::make_unique<core::CudaMallocHookLibrary>();
      lane.malloc_hook->install(*node_->gpu(s).allocator);
    }
    lanes_.push_back(std::move(lane));
  }

  stages_.reserve(static_cast<std::size_t>(vs_count));
  for (int vs = 0; vs < vs_count; ++vs) build_stage(vs);

  recv_counts_.assign(static_cast<std::size_t>(vs_count), 0);
  util::Bytes cpu_budget = 0;
  for (int vs = 0; vs < vs_count; ++vs) {
    StageRuntime& stage = *stages_[static_cast<std::size_t>(vs)];
    recv_counts_[static_cast<std::size_t>(vs)] =
        stage.model().forward_recv_tensors();
    util::expects(vs == 0 || recv_counts_[static_cast<std::size_t>(vs)] > 0,
                  "non-first virtual stage receives no boundary tensors");
    lanes_[static_cast<std::size_t>(stage.gpu())].param_bytes +=
        stage.model().parameter_bytes(config_.parallel.tensor_parallel);
    cpu_budget += stage.offload_budget();
  }

  for (int s = 0; s < pp; ++s) stage_gpus_.push_back(s);
  ledger_ = std::make_unique<RecoveryLedger>(*node_, config_, injector_.get());
  if (ckpt::CheckpointWriter* writer = ledger_->writer()) {
    // Each virtual stage checkpoints its fp16 weight slice plus its share
    // of the fp32 optimizer state (12 B per parameter, cut to 1/dp when
    // ZeRO shards the states across the DP group).
    const double opt_shard =
        config_.parallel.zero == parallel::ZeroStage::none
            ? 1.0
            : 1.0 / config_.parallel.data_parallel;
    for (const auto& stage : stages_) {
      const util::Bytes weights =
          stage->model().parameter_bytes(config_.parallel.tensor_parallel);
      writer->add_stage(
          stage->gpu(), stage->chunk(), weights,
          static_cast<util::Bytes>(6.0 * static_cast<double>(weights) *
                                   opt_shard));
    }
  }

  // One pinned pool shared by every stage's host tier.
  reserve_pinned_pool(*node_, config_.strategy, cpu_budget);
}

ClusterSession::~ClusterSession() = default;

void ClusterSession::build_stage(int virtual_stage) {
  const int pp = config_.parallel.pipeline_parallel;
  const int vs_count = pp * config_.virtual_stages;
  const int s = virtual_stage % pp;
  const int c = virtual_stage / pp;
  const int layers_per_stage = config_.model.layers / vs_count;
  const bool whole = vs_count == 1;

  StageSpec spec;
  spec.gpu = s;
  spec.chunk = c;
  for (const sched::Command& cmd :
       lanes_[static_cast<std::size_t>(s)].stage_stream) {
    if (cmd.chunk != c) continue;
    if (cmd.kind == sched::CommandKind::forward ||
        cmd.kind == sched::CommandKind::backward) {
      spec.schedule.push_back(cmd);
    }
  }
  spec.schedule.push_back({sched::CommandKind::optimizer_step, 0, 0});

  // The default slice is the whole model — the bit-identical
  // TrainingSession path for a 1/1/1 cluster.
  spec.planner_model = config_.model;
  if (!whole) {
    spec.slice.first_layer = virtual_stage * layers_per_stage;
    spec.slice.layer_count = layers_per_stage;
    spec.slice.first_stage = virtual_stage == 0;
    spec.slice.last_stage = virtual_stage == vs_count - 1;
    // Per-stage adaptive planning: the planner sees this stage's layer
    // slice and the peak number of micro-batches the schedule keeps in
    // flight here.
    spec.planner_model.layers = layers_per_stage;
    spec.planner_model.workload = config_.model.resolved_workload().slice(
        virtual_stage * layers_per_stage, layers_per_stage);
    spec.peak_in_flight = sched::peak_in_flight_micro_batches(spec.schedule);
    // Multi-stage: executors must not pace (step the shared clock) inside
    // a command — one lane draining its queue would advance time past the
    // moment a peer's kernels could start (tasks cannot start before
    // their enqueue time) and serialize the pipeline. run_step paces at
    // command granularity instead, advancing the clock only when no lane
    // can dispatch.
    spec.executor.max_launch_ahead = 1 << 30;
  }
  if (config_.parallel.tensor_parallel > 1) {
    // TP all-reduces as fabric flows: this GPU's injection port plus the
    // shared NVLink spine, contended with every other stage's collectives.
    spec.executor.tp_flow_path = {node_->gpu(s).nvlink_port,
                                  node_->nvlink_resource()};
  }
  spec.malloc_hook = lanes_[static_cast<std::size_t>(s)].malloc_hook.get();
  if (config_.program_cache != nullptr && config_.use_replay) {
    spec.cache_key = stage_program_key(config_, node_->config(), virtual_stage,
                                       spec.schedule);
  }

  auto stage = std::make_unique<StageRuntime>(*node_, config_,
                                              injector_.get(), std::move(spec));
  Executor& executor = stage->executor();
  const int dp = config_.parallel.data_parallel;
  switch (config_.parallel.zero) {
    case parallel::ZeroStage::none:
      break;  // 1.0/1.0 defaults: the unpartitioned optimizer, bit for bit
    case parallel::ZeroStage::stage1:
      // Optimizer states sharded: this rank updates its 1/dp parameter
      // partition but still holds (and zeroes) full gradients.
      executor.set_optimizer_shards(1.0 / dp, 1.0);
      break;
    case parallel::ZeroStage::stage2:
    case parallel::ZeroStage::stage3:
      // Gradients reduce-scattered too: both passes shrink to 1/dp.
      executor.set_optimizer_shards(1.0 / dp, 1.0 / dp);
      break;
  }
  stages_.push_back(std::move(stage));
}

int ClusterSession::gpu_count() const {
  return config_.parallel.pipeline_parallel;
}

int ClusterSession::virtual_stage_count() const {
  return config_.parallel.pipeline_parallel * config_.virtual_stages;
}

const StepProgram* ClusterSession::program(int virtual_stage) const {
  util::expects(virtual_stage >= 0 &&
                    virtual_stage < virtual_stage_count(),
                "virtual stage out of range");
  return stages_[static_cast<std::size_t>(virtual_stage)]->program();
}

void ClusterSession::launch_boundary_send(int src_virtual_stage,
                                          int micro_batch, bool forward) {
  const int pp = config_.parallel.pipeline_parallel;
  const int dst_vs = forward ? src_virtual_stage + 1 : src_virtual_stage - 1;
  // Forward: what the downstream stage's forward consumes. Backward: the
  // gradients of this stage's own boundary inputs.
  const int tensors = forward
                          ? recv_counts_[static_cast<std::size_t>(dst_vs)]
                          : recv_counts_[static_cast<std::size_t>(
                                src_virtual_stage)];
  util::expects(tensors > 0, "boundary send with no receiver tensors");
  const util::Bytes bytes = boundary_bytes_ * tensors;
  const int src_gpu = src_virtual_stage % pp;
  const int dst_gpu = dst_vs % pp;

  static const util::Label kForward("pipeline:activation_send");
  static const util::Label kBackward("pipeline:grad_send");
  auto done = sim::Completion::create(node_->simulator(),
                                      forward ? kForward : kBackward);
  // Stream-ordered like a NCCL p2p send: the transfer starts when the
  // sender's compute reaches this point, not when the CPU plans it.
  auto launch = node_->gpu(src_gpu).compute_stream->record_marker(
      forward ? "send_forward" : "send_backward");
  const util::Seconds latency = config_.fabric_hop_latency;
  if (src_gpu == dst_gpu) {
    // Chunk wrap-around on one GPU (pp = 1 with virtual stages): no
    // fabric crossing, only the launch latency.
    launch->add_waiter([this, done, latency]() {
      node_->simulator().schedule_after(latency, [done]() {
        if (!done->done()) done->fire();
      });
    });
  } else {
    p2p_bytes_step_ += bytes;
    launch->add_waiter(
        [this, done, bytes, latency, src_gpu, dst_gpu, forward]() {
          node_->network().start_flow(
              forward ? kForward : kBackward, bytes,
              {node_->gpu(src_gpu).pcie_tx, node_->gpu(dst_gpu).pcie_rx},
              [this, done, latency]() {
                node_->simulator().schedule_after(latency, [done]() {
                  if (!done->done()) done->fire();
                });
              });
        });
  }
  auto& pending = forward ? pending_forward_ : pending_backward_;
  pending[{dst_vs, micro_batch}] = std::move(done);
}

sim::CompletionPtr ClusterSession::launch_fabric_flow(
    util::Label label, util::Bytes bytes,
    std::vector<sim::BandwidthNetwork::ResourceId> path, int gpu,
    util::Seconds latency) {
  auto& sim = node_->simulator();
  auto done = sim::Completion::create(sim, label);
  if (bytes <= 0) {
    sim.schedule_after(latency, [done]() {
      if (!done->done()) done->fire();
    });
    return done;
  }
  auto launch =
      node_->gpu(gpu).compute_stream->record_marker("fabric_launch");
  launch->add_waiter(
      [this, done, label, bytes, path = std::move(path), latency]() mutable {
        node_->network().start_flow(label, bytes, std::move(path),
                                    [this, done, latency]() {
                                      node_->simulator().schedule_after(
                                          latency, [done]() {
                                            if (!done->done()) done->fire();
                                          });
                                    });
      });
  return done;
}

void ClusterSession::dispatch_optimizer(int gpu) {
  const int pp = config_.parallel.pipeline_parallel;
  const int v = config_.virtual_stages;
  const int dp = config_.parallel.data_parallel;
  const util::Seconds hop = config_.fabric_hop_latency;
  auto& lane = lanes_[static_cast<std::size_t>(gpu)];
  auto& gpu_ctx = node_->gpu(gpu);
  auto& stream = *gpu_ctx.compute_stream;

  // The compute pipeline ends here for this GPU: the marker timestamps the
  // bubble measurement, its waiter snapshots the stream's busy time at
  // that instant (optimizer and DP sync excluded from the bubble).
  lane.pipeline_end = stream.record_marker("pipeline_end");
  lane.pipeline_end->add_waiter([this, gpu]() {
    lanes_[static_cast<std::size_t>(gpu)].busy_at_end =
        node_->gpu(gpu).compute_stream->busy_time();
  });

  const bool sharded = config_.parallel.zero != parallel::ZeroStage::none;
  const double param_bytes = static_cast<double>(lane.param_bytes);
  std::vector<sim::CompletionPtr> gates;
  if (dp > 1) {
    // Pre-optimizer gradient reduction; with the post-optimizer gather
    // below the volumes sum to zero_dp_traffic_per_step's closed form.
    double reduce = 0.0;
    util::Seconds latency = 0.0;
    switch (config_.parallel.zero) {
      case parallel::ZeroStage::none:
        reduce = parallel::all_reduce_traffic(lane.param_bytes, dp);
        latency = 2.0 * (dp - 1) * hop;
        break;
      case parallel::ZeroStage::stage1:
      case parallel::ZeroStage::stage2:
        reduce = parallel::reduce_scatter_traffic(lane.param_bytes, dp);
        latency = (dp - 1) * hop;
        break;
      case parallel::ZeroStage::stage3:
        // The backward parameter all-gather plus the gradient
        // reduce-scatter land at the flush point.
        reduce = parallel::all_gather_traffic(lane.param_bytes, dp) +
                 parallel::reduce_scatter_traffic(lane.param_bytes, dp);
        latency = 2.0 * (dp - 1) * hop;
        break;
    }
    static const util::Label kGradReduce("dp:grad_reduce");
    const auto traffic = static_cast<util::Bytes>(reduce);
    dp_bytes_step_ += traffic;
    gates.push_back(launch_fabric_flow(
        kGradReduce, traffic,
        {gpu_ctx.pcie_tx, lane.dp_port, gpu_ctx.pcie_rx}, gpu, latency));
  }
  if (config_.zero_offload_optimizer && node_->has_array(gpu)) {
    // ZeRO-Offload-style states on NVMe: fp32 momentum + master weights,
    // 12 bytes per parameter = 6x the fp16 parameter bytes, of this
    // rank's partition, fetched over GDS before the update.
    const double shard = sharded ? 1.0 / dp : 1.0;
    const auto state = static_cast<util::Bytes>(6.0 * param_bytes * shard);
    static const util::Label kStateFetch("zero_offload:state_fetch");
    gates.push_back(launch_fabric_flow(kStateFetch, state,
                                       node_->gds_read_path(gpu), gpu, hop));
  }
  // NCCL-style blocking sync: optimizer kernels enqueued below wait for
  // the reduction (and state fetch) on the stream.
  for (const auto& gate : gates) stream.wait_for(gate);

  for (int c = 0; c < v; ++c) {
    StageRuntime& stage = *stages_[static_cast<std::size_t>(c) * pp + gpu];
    const std::size_t index = stage.next_command();
    util::expects(index < stage.schedule().size() &&
                      stage.schedule()[index].kind ==
                          sched::CommandKind::optimizer_step,
                  "stage stream ended before its optimizer command");
    stage.run_command(index);
  }

  // Post-optimizer fabric tail: the updated-parameter all-gather (ZeRO
  // shards) and the optimizer-state writeback. Launched when the stream
  // passes the update; drains in the step run-out like trailing offload
  // I/O (visible as drain_time).
  if (dp > 1 && sharded) {
    const auto gather = static_cast<util::Bytes>(
        parallel::all_gather_traffic(lane.param_bytes, dp));
    dp_bytes_step_ += gather;
    static const util::Label kParamGather("dp:param_gather");
    launch_fabric_flow(kParamGather, gather,
                       {gpu_ctx.pcie_tx, lane.dp_port, gpu_ctx.pcie_rx},
                       gpu, (dp - 1) * hop);
  }
  if (config_.zero_offload_optimizer && node_->has_array(gpu)) {
    const double shard = sharded ? 1.0 / dp : 1.0;
    const auto state = static_cast<util::Bytes>(6.0 * param_bytes * shard);
    static const util::Label kStateWriteback("zero_offload:state_writeback");
    launch_fabric_flow(kStateWriteback, state, node_->gds_write_path(gpu),
                       gpu, hop);
  }
}

bool ClusterSession::dispatch(int gpu, const sched::Command& command) {
  const int pp = config_.parallel.pipeline_parallel;
  const int vs = command.chunk * pp + gpu;
  StageRuntime& stage = *stages_[static_cast<std::size_t>(vs)];
  switch (command.kind) {
    case sched::CommandKind::forward:
    case sched::CommandKind::backward: {
      const std::size_t index = stage.next_command();
      const std::vector<sched::Command>& schedule = stage.schedule();
      util::expects(index < schedule.size() &&
                        schedule[index].kind == command.kind &&
                        schedule[index].micro_batch == command.micro_batch,
                    "lane and stage schedules diverged");
      stage.run_command(index);
      return true;
    }
    case sched::CommandKind::send_forward:
      launch_boundary_send(vs, command.micro_batch, /*forward=*/true);
      return true;
    case sched::CommandKind::send_backward:
      launch_boundary_send(vs, command.micro_batch, /*forward=*/false);
      return true;
    case sched::CommandKind::recv_forward: {
      auto it = pending_forward_.find({vs, command.micro_batch});
      if (it == pending_forward_.end()) return false;  // lane stalls
      const int tensors = recv_counts_[static_cast<std::size_t>(vs)];
      for (int i = 0; i < tensors; ++i) {
        stage.executor().push_stage_input(it->second);
      }
      pending_forward_.erase(it);
      return true;
    }
    case sched::CommandKind::recv_backward: {
      auto it = pending_backward_.find({vs, command.micro_batch});
      if (it == pending_backward_.end()) return false;  // lane stalls
      // Gradients of what this stage sent forward: the downstream
      // stage's input count.
      const int tensors = recv_counts_[static_cast<std::size_t>(vs) + 1];
      for (int i = 0; i < tensors; ++i) {
        stage.executor().push_stage_input(it->second);
      }
      pending_backward_.erase(it);
      return true;
    }
    case sched::CommandKind::optimizer_step:
      dispatch_optimizer(gpu);
      return true;
  }
  return true;
}

ClusterStepStats ClusterSession::run_step() {
  const int pp = config_.parallel.pipeline_parallel;
  auto& sim = node_->simulator();

  std::uint64_t invalidations = 0;
  if (injector_ != nullptr &&
      injector_->structural_epoch() != fault_epoch_seen_) {
    fault_epoch_seen_ = injector_->structural_epoch();
    // Structural fault since the last boundary: every stage's recorded
    // program is suspect (the fault may have moved any stage's pack/load
    // branches), so all are discarded and re-recorded with the same
    // chunk stagger, counted from this step.
    for (auto& stage : stages_) {
      if (stage->invalidate_after_fault()) ++invalidations;
    }
    record_base_ = step_index_;
  }

  pending_forward_.clear();
  pending_backward_.clear();
  p2p_bytes_step_ = 0;
  dp_bytes_step_ = 0;
  for (int s = 0; s < pp; ++s) {
    auto& lane = lanes_[static_cast<std::size_t>(s)];
    lane.cursor = 0;
    lane.pipeline_end.reset();
    lane.busy_at_end = 0.0;
    lane.busy_start = node_->gpu(s).compute_stream->busy_time();
  }

  const util::Seconds step_start = sim.now();
  for (auto& stage : stages_) {
    // One allocator trace observer per GPU at a time: chunk c records on
    // step c, so a V-chunk GPU reaches all-replay at step V.
    stage->begin_step(step_index_ - record_base_ == stage->chunk());
  }

  if (virtual_stage_count() == 1) {
    // Degenerate cluster: one lane, no cross-lane clock coupling. The
    // executor paces internally, exactly like TrainingSession (the
    // bit-identity contract).
    auto& lane = lanes_.front();
    while (lane.cursor < lane.commands.size()) {
      util::check(dispatch(0, lane.commands[lane.cursor]),
                  "single-stage schedule stalled");
      ++lane.cursor;
    }
  } else {
    // Coupled-actors driver. Each lane's CPU dispatches independently on
    // a real cluster, but here all share one simulated clock — and a task
    // enqueued at time t cannot start before t, so dispatch must never
    // outrun the clock's peers. Executors were built with pacing off
    // (max_launch_ahead unbounded): dispatching advances the clock zero,
    // every lane enqueues at the same instant, and the driver itself
    // paces at command granularity — a lane with more than one command's
    // launch-ahead queued waits, a recv whose matching send is not
    // dispatched stalls (blocking-recv semantics). The clock advances
    // only when no lane can dispatch, i.e. exactly to the next event
    // that unblocks one. A stall with an empty event queue is a
    // schedule bug.
    const std::size_t launch_ahead =
        static_cast<std::size_t>(ExecutorOptions{}.max_launch_ahead);
    for (;;) {
      bool all_done = true;
      bool dispatched = false;
      for (int s = 0; s < pp; ++s) {
        auto& lane = lanes_[static_cast<std::size_t>(s)];
        while (lane.cursor < lane.commands.size()) {
          const sched::Command& command = lane.commands[lane.cursor];
          const bool paced =
              command.kind == sched::CommandKind::forward ||
              command.kind == sched::CommandKind::backward ||
              command.kind == sched::CommandKind::optimizer_step;
          if (paced &&
              node_->gpu(s).compute_stream->queued() > launch_ahead) {
            break;
          }
          if (!dispatch(s, command)) break;
          ++lane.cursor;
          dispatched = true;
        }
        if (lane.cursor < lane.commands.size()) all_done = false;
      }
      if (all_done) break;
      if (dispatched) continue;
      util::check(sim.step(), "cluster schedule deadlocked");
    }
  }

  // Drive the shared simulator until every stage's stream drained, then
  // run out the trailing I/O (offload stores, DP gathers, writebacks).
  // Every stage marks its end first, so the drive counts as simulation
  // time for every active recording.
  for (auto& stage : stages_) stage->mark_step_end();
  for (auto& stage : stages_) {
    while (!stage->step_ended()) {
      util::check(sim.step(), "simulation stalled before cluster step end");
    }
  }
  sim.run();

  ClusterStepStats out;
  out.ideal_bubble = ideal_bubble_;
  out.per_stage.reserve(stages_.size());
  for (auto& stage : stages_) {
    out.per_stage.push_back(
        {stage->gpu(), stage->chunk(), stage->collect_step()});
  }
  // Seal recordings before any teardown: the graph/slot frees below are
  // inter-step cleanup and must not be compiled into the programs.
  for (auto& stage : stages_) stage->seal_recording();
  for (auto& stage : stages_) stage->end_step();

  // Bubble: makespan to the last GPU's pipeline_end against each GPU's
  // busy time over that window.
  util::Seconds pipe_end = step_start;
  for (int s = 0; s < pp; ++s) {
    const auto& lane = lanes_[static_cast<std::size_t>(s)];
    if (lane.pipeline_end != nullptr && lane.pipeline_end->done()) {
      pipe_end = std::max(pipe_end, lane.pipeline_end->completion_time());
    }
  }
  out.pipeline_time = pipe_end - step_start;
  if (out.pipeline_time > 0.0) {
    double busy_fraction = 0.0;
    for (int s = 0; s < pp; ++s) {
      const auto& lane = lanes_[static_cast<std::size_t>(s)];
      busy_fraction +=
          (lane.busy_at_end - lane.busy_start) / out.pipeline_time;
    }
    out.measured_bubble = 1.0 - busy_fraction / pp;
  }

  out.combined = stages_.size() == 1
                     ? out.per_stage.front().stats
                     : merge_cluster_stats(out.per_stage, pp);
  out.combined.program_invalidations = invalidations;
  out.p2p_bytes = p2p_bytes_step_;
  out.dp_bytes = dp_bytes_step_;
  ++step_index_;
  ledger_->finish_step(out.combined, stage_gpus_);
  return out;
}

std::vector<ClusterStepStats> ClusterSession::run_steps(int n) {
  util::expects(n >= 1, "need at least one step");
  std::vector<ClusterStepStats> out;
  out.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) out.push_back(run_step());
  return out;
}

}  // namespace ssdtrain::runtime
