#include "ssdtrain/runtime/executor.hpp"

#include <algorithm>
#include <utility>

#include "ssdtrain/util/check.hpp"

namespace ssdtrain::runtime {

using tensor::Tensor;

Executor::Executor(hw::TrainingNode& node, parallel::ParallelConfig parallel,
                   ExecutorOptions options)
    : node_(node),
      parallel_(parallel),
      options_(std::move(options)),
      factory_(*node.gpu(options_.gpu_index).allocator) {
  parallel_.validate();
}

tensor::Tensor Executor::make_activation(std::string label,
                                         tensor::TensorShape shape,
                                         tensor::DType dtype) {
  Tensor t = factory_.cuda(label, shape, dtype, hw::MemoryTag::activation);
  // Ready events are anonymous on purpose: one is minted per activation
  // per micro-batch, and a label would either intern an unbounded string
  // set or allocate text nobody reads (the tensor itself carries the
  // name).
  auto ready = sim::Completion::create(node_.simulator());
  t.storage()->set_ready_event(ready);
  pending_ready_.push_back(t);
  if (recorder_ != nullptr) recorder_->on_make_activation(t);
  return t;
}

sim::CompletionPtr Executor::next_stage_input_ready() {
  if (!stage_input_ready_.empty()) {
    auto ready = std::move(stage_input_ready_.front());
    stage_input_ready_.pop_front();
    return ready;
  }
  // No session pushed a recv completion: a sliced model running standalone
  // (tests, analysis). The boundary input is simply available.
  return sim::Completion::already_done(node_.simulator());
}

tensor::Tensor Executor::make_stage_input(std::string label,
                                          tensor::TensorShape shape,
                                          tensor::DType dtype) {
  Tensor t = factory_.cuda(label, shape, dtype, hw::MemoryTag::activation);
  // Unlike make_activation the producer is external (the upstream stage's
  // send flow), so the tensor must NOT join pending_ready_ — binding it to
  // this stage's next kernel would gate the kernel on its own input's
  // arrival *and* declare that kernel the input's producer, a cycle.
  t.storage()->set_ready_event(next_stage_input_ready());
  if (recorder_ != nullptr) recorder_->on_stage_input(t);
  return t;
}

void Executor::push_stage_input(sim::CompletionPtr ready) {
  stage_input_ready_.push_back(std::move(ready));
}

tensor::Tensor Executor::weight(const std::string& key,
                                tensor::TensorShape shape,
                                tensor::DType dtype) {
  auto it = weights_.find(key);
  if (it != weights_.end()) return it->second;

  Tensor w = factory_.cuda(key, shape, dtype, hw::MemoryTag::weights);
  // Persistent gradient buffer, Megatron-style (allocated once, accumulated
  // into, zeroed by the optimizer step).
  auto& allocator = *node_.gpu(options_.gpu_index).allocator;
  allocator.allocate(w.bytes(), hw::MemoryTag::gradients);
  weight_grad_bytes_ += w.bytes();
  if (cache_ != nullptr) cache_->register_weight(w);
  weights_.emplace(key, w);
  weight_order_.push_back(key);
  return w;
}

tensor::Tensor Executor::make_host_tensor(std::string label,
                                          tensor::TensorShape shape,
                                          tensor::DType dtype) {
  Tensor t = factory_.cpu(label, shape, dtype);
  if (recorder_ != nullptr) recorder_->on_make_host_tensor(t);
  return t;
}

void Executor::kernel(std::string label, util::Flops flops,
                      util::Bytes bytes_read, util::Bytes bytes_written,
                      std::vector<tensor::Tensor> consumed) {
  auto& gpu_ctx = node_.gpu(options_.gpu_index);
  hw::KernelDesc desc;
  desc.label = label;
  desc.flops = flops;
  desc.bytes_read = bytes_read;
  desc.bytes_written = bytes_written;
  const util::Seconds duration = gpu_ctx.gpu->kernel_time(desc);

  if (recorder_ != nullptr) {
    recorder_->on_kernel(label, duration, flops, recompute_depth_ == 0,
                         consumed);
  }

  std::vector<sim::CompletionPtr> deps;
  for (const auto& t : consumed) {
    if (!t.defined()) continue;
    const auto& ready = t.storage()->ready_event();
    if (ready && !ready->done()) deps.push_back(ready);
  }
  auto done = gpu_ctx.compute_stream->enqueue(std::move(label), duration,
                                              std::move(deps));
  bind_pending_ready_events(done);

  executed_flops_ += flops;
  if (recompute_depth_ == 0) algorithmic_flops_ += flops;
  pace();
}

sim::CompletionPtr Executor::launch_comm_flow(util::Label label,
                                              util::Bytes traffic,
                                              util::Seconds latency) {
  auto done = sim::Completion::create(node_.simulator(), label);
  // NCCL semantics: the collective starts when the stream reaches it, not
  // when the CPU plans it — so the flow launch rides a stream marker.
  auto launch = node_.gpu(options_.gpu_index)
                    .compute_stream->record_marker("comm_launch");
  launch->add_waiter([this, done, label, traffic, latency]() {
    node_.network().start_flow(
        label, traffic, options_.tp_flow_path, [this, done, latency]() {
          node_.simulator().schedule_after(latency, [done]() {
            if (!done->done()) done->fire();
          });
        });
  });
  return done;
}

void Executor::tp_all_reduce(util::Bytes bytes) {
  if (parallel_.tensor_parallel <= 1) return;
  static const util::Label kLabel("tp_all_reduce");
  if (!options_.tp_flow_path.empty()) {
    // Fabric-contended path: ring traffic over the shared network, so TP
    // collectives slow down (and are slowed by) offload and peer-stage
    // traffic. The closed form below stays the zero-contention reference.
    const auto traffic = static_cast<util::Bytes>(
        parallel::all_reduce_traffic(bytes, parallel_.tensor_parallel));
    const util::Seconds latency = 2.0 *
                                  (parallel_.tensor_parallel - 1) *
                                  options_.tp_fabric.per_hop_latency;
    if (recorder_ != nullptr) recorder_->on_comm(kLabel, traffic, latency);
    auto done = launch_comm_flow(kLabel, traffic, latency);
    auto& stream = *node_.gpu(options_.gpu_index).compute_stream;
    stream.wait_for(done);
    bind_pending_ready_events(done);
    pace();
    return;
  }
  const util::Seconds duration = parallel::all_reduce_time(
      bytes, parallel_.tensor_parallel, options_.tp_fabric);
  if (recorder_ != nullptr) {
    recorder_->on_kernel("tp_all_reduce", duration, 0.0,
                         recompute_depth_ == 0, {});
  }
  auto done = node_.gpu(options_.gpu_index)
                  .compute_stream->enqueue("tp_all_reduce", duration);
  bind_pending_ready_events(done);
  pace();
}

void Executor::replay_comm(const StepProgram& program,
                           const StepProgram::Op& op) {
  auto done = launch_comm_flow(program.labels[op.b],
                               static_cast<util::Bytes>(op.y), op.x);
  auto& stream = *node_.gpu(options_.gpu_index).compute_stream;
  stream.wait_for(done);
  bind_pending_replay(done);
  pace();
}

graph::GraphNode& Executor::make_node(std::string name) {
  return graph_.make_node(std::move(name));
}

const graph::SavedTensorHooks* Executor::hooks() const {
  if (!hook_stack_.empty()) return hook_stack_.back();
  return cache_ != nullptr ? &cache_->hooks() : nullptr;
}

const parallel::ParallelConfig& Executor::parallel() const {
  return parallel_;
}

void Executor::push_hooks(const graph::SavedTensorHooks* hooks) {
  hook_stack_.push_back(hooks);
}

void Executor::pop_hooks() {
  util::expects(!hook_stack_.empty(), "hook stack underflow");
  hook_stack_.pop_back();
}

void Executor::end_recompute_segment() {
  util::expects(recompute_depth_ > 0, "recompute segment underflow");
  --recompute_depth_;
}

void Executor::set_optimizer_shards(double weight_shard, double grad_shard) {
  util::expects(weight_shard > 0.0 && weight_shard <= 1.0 &&
                    grad_shard > 0.0 && grad_shard <= 1.0,
                "optimizer shards must be in (0, 1]");
  optimizer_weight_shard_ = weight_shard;
  optimizer_grad_shard_ = grad_shard;
}

util::Bytes Executor::weights_live() const {
  return node_.gpu(options_.gpu_index)
      .allocator->live(hw::MemoryTag::weights);
}

void Executor::bind_pending_ready_events(const sim::CompletionPtr& producer) {
  if (pending_ready_.empty()) return;
  std::vector<sim::CompletionPtr> events;
  events.reserve(pending_ready_.size());
  for (const auto& t : pending_ready_) {
    const auto& e = t.storage()->ready_event();
    if (e && !e->done()) events.push_back(e);
  }
  pending_ready_.clear();
  if (events.empty()) return;
  producer->add_waiter([events]() {
    for (const auto& e : events) {
      if (!e->done()) e->fire();
    }
  });
}

void Executor::bind_pending_replay(const sim::CompletionPtr& producer) {
  // Same firing order as the trace path's vector waiter, without the
  // vector: one inline waiter per still-pending event, registered
  // back-to-back so they run consecutively at producer completion.
  for (const auto& e : replay_pending_) {
    if (e->done()) continue;
    producer->add_waiter(util::relocatable([e]() {
      if (!e->done()) e->fire();
    }));
  }
  replay_pending_.clear();
}

void Executor::pace() {
  auto& stream = *node_.gpu(options_.gpu_index).compute_stream;
  auto& sim = node_.simulator();
  // Deaths while pacing are asynchronous for the recording. Only this
  // executor's recorder needs the bracket: executors sharing a simulator
  // run with unbounded launch-ahead and never step it here.
  if (recorder_ != nullptr) recorder_->enter_sim();
  while (stream.queued() >
         static_cast<std::size_t>(options_.max_launch_ahead)) {
    if (!sim.step()) break;
  }
  if (recorder_ != nullptr) recorder_->exit_sim();
}

void Executor::run_optimizer(modules::Model& model) {
  (void)model;
  auto& gpu_ctx = node_.gpu(options_.gpu_index);
  // ZeRO sharding: under stage 1+ this rank updates only its
  // 1/dp parameter partition; under stage 2+ it also holds only its
  // gradient partition. Both shards default to 1.0 (whole tensors).
  const auto weight_bytes = static_cast<util::Bytes>(
      static_cast<double>(weights_live()) * optimizer_weight_shard_);
  const auto grad_bytes = static_cast<util::Bytes>(
      static_cast<double>(weight_grad_bytes_) * optimizer_grad_shard_);
  const auto grad_partition = static_cast<util::Bytes>(
      static_cast<double>(weight_grad_bytes_) * optimizer_weight_shard_);

  // Gradient clipping / global norm: one read pass over the gradients.
  kernel("optimizer::grad_norm", static_cast<double>(grad_bytes) / 2.0,
         grad_bytes, 0, {});
  // SGD: w -= lr * g (read weights + grads, write weights).
  kernel("optimizer::sgd_update", static_cast<double>(weight_bytes),
         weight_bytes + grad_partition, weight_bytes, {});
  // Zero gradients for the next accumulation window.
  kernel("optimizer::zero_grads", 0.0, 0, grad_bytes, {});
  // Fixed framework overhead per step: unfused per-tensor optimizer
  // launches, loss-scale bookkeeping, scheduler housekeeping. Calibrated
  // against the micro-batch-size study (Fig. 8a), where weight-update
  // amortisation dominates the throughput gain of larger micro-batches.
  static const util::Label kOverhead("optimizer::framework_overhead");
  if (recorder_ != nullptr) {
    recorder_->on_plain_enqueue(kOverhead, util::ms(40));
  }
  gpu_ctx.compute_stream->enqueue("optimizer::framework_overhead",
                                  util::ms(40));
}

Executor::StepBaseline Executor::snapshot_baseline() {
  auto& gpu_ctx = node_.gpu(options_.gpu_index);
  StepBaseline base;
  base.step_start = node_.simulator().now();
  base.busy_start = gpu_ctx.compute_stream->busy_time();
  base.algo_start = algorithmic_flops_;
  base.exec_start = executed_flops_;
  base.offloaded_start =
      cache_ != nullptr ? cache_->stats().offloaded_bytes : 0;
  base.ssd_written_start =
      node_.has_array(options_.gpu_index)
          ? node_.array(options_.gpu_index).host_bytes_written()
          : 0;
  return base;
}

sim::CompletionPtr Executor::record_step_end() {
  return node_.gpu(options_.gpu_index).compute_stream->record_marker(
      "step_end");
}

StepStats Executor::collect_step(const StepBaseline& base,
                                 const sim::CompletionPtr& pre_opt_marker,
                                 const sim::CompletionPtr& step_end_marker) {
  util::expects(step_end_marker && step_end_marker->done(),
                "collect_step before the step-end marker completed");
  auto& gpu_ctx = node_.gpu(options_.gpu_index);
  auto& allocator = *gpu_ctx.allocator;
  const util::Seconds step_end = step_end_marker->completion_time();

  StepStats stats;
  stats.step_time = step_end - base.step_start;
  stats.drain_time = node_.simulator().now() - step_end;
  if (pre_opt_marker && pre_opt_marker->done()) {
    stats.optimizer_time = step_end - pre_opt_marker->completion_time();
  }
  stats.activation_peak = allocator.peak(hw::MemoryTag::activation);
  stats.total_peak = allocator.peak_total();
  stats.weights_live = allocator.live(hw::MemoryTag::weights);
  stats.algorithmic_flops = algorithmic_flops_ - base.algo_start;
  stats.executed_flops = executed_flops_ - base.exec_start;
  stats.model_throughput =
      stats.step_time > 0.0 ? stats.algorithmic_flops / stats.step_time : 0.0;
  stats.compute_busy = gpu_ctx.compute_stream->busy_time() - base.busy_start;
  stats.compute_utilization =
      stats.step_time > 0.0 ? stats.compute_busy / stats.step_time : 0.0;
  if (cache_ != nullptr) {
    stats.cache = cache_->stats();
    stats.offloaded_bytes =
        stats.cache.offloaded_bytes - base.offloaded_start;
  }
  if (node_.has_array(options_.gpu_index)) {
    auto& array = node_.array(options_.gpu_index);
    stats.ssd_host_written =
        array.host_bytes_written() - base.ssd_written_start;
    stats.ssd_write_amplification = array.write_amplification();
  }
  stats.required_write_bandwidth =
      stats.step_time > 0.0
          ? static_cast<double>(stats.offloaded_bytes) /
                (stats.step_time / 2.0)
          : 0.0;
  return stats;
}

Executor::StepBaseline Executor::begin_trace_step() {
  node_.gpu(options_.gpu_index).allocator->reset_peaks();
  if (cache_ != nullptr) cache_->on_step_begin();
  return snapshot_baseline();
}

void Executor::exec_command(modules::Model& model,
                            const std::vector<sched::Command>& schedule,
                            std::size_t index,
                            sim::CompletionPtr& pre_optimizer_marker) {
  if (recorder_ != nullptr) recorder_->begin_command();
  const sched::Command& cmd = schedule[index];
  switch (cmd.kind) {
    case sched::CommandKind::forward: {
      micro_batch_ = cmd.micro_batch;
      if (cache_ != nullptr) {
        cache_->on_micro_batch(cmd.micro_batch);
        cache_->on_forward_begin();
        // Fig. 2 ④: when this micro-batch's backward follows
        // immediately, the last module's activations are kept. The
        // effective unit is the final block of the last layer (its
        // backward starts within a store round-trip time).
        if (sched::backward_follows_immediately(schedule, index)) {
          modules::Module* last_layer = model.transformer_layers().back();
          const modules::Module* keep =
              last_layer->children().empty()
                  ? last_layer
                  : last_layer->children().back().get();
          cache_->set_keep_scopes({keep});
        } else {
          cache_->set_keep_scopes({});
        }
      }
      loss_by_micro_batch_[cmd.micro_batch] = model.forward_step(*this);
      break;
    }
    case sched::CommandKind::backward: {
      micro_batch_ = cmd.micro_batch;
      if (cache_ != nullptr) {
        cache_->on_micro_batch(cmd.micro_batch);
        cache_->on_backward_begin();
      }
      model.backward_step(*this);
      loss_by_micro_batch_.erase(cmd.micro_batch);
      break;
    }
    case sched::CommandKind::optimizer_step: {
      pre_optimizer_marker = node_.gpu(options_.gpu_index)
                                 .compute_stream->record_marker(
                                     "pre_optimizer");
      if (recorder_ != nullptr) recorder_->on_pre_optimizer_marker();
      run_optimizer(model);
      break;
    }
    case sched::CommandKind::recv_forward:
    case sched::CommandKind::send_forward:
    case sched::CommandKind::recv_backward:
    case sched::CommandKind::send_backward:
      // Stage-boundary transfers are flows between executors; only the
      // cluster session's driver can dispatch them.
      util::unreachable("communication command on the executor");
  }
}

void Executor::end_trace_step() {
  graph_.clear();
  loss_by_micro_batch_.clear();
}

void Executor::start_recording(const std::vector<sched::Command>& schedule) {
  util::expects(recorder_ == nullptr, "already recording");
  recording_ = std::make_shared<StepProgram>();
  recording_->schedule = schedule;
  recorder_ = std::make_unique<StepRecorder>(
      *recording_, *node_.gpu(options_.gpu_index).allocator, cache_);
  if (cache_ != nullptr) cache_->set_trace_recorder(recorder_.get());
}

std::shared_ptr<StepProgram> Executor::finish_recording() {
  util::expects(recorder_ != nullptr, "no recording to finish");
  recorder_->finalize();
  if (cache_ != nullptr) cache_->set_trace_recorder(nullptr);
  recorder_.reset();
  recording_->weights.reserve(weight_order_.size());
  for (const std::string& key : weight_order_) {
    const tensor::Tensor& w = weights_.at(key);
    recording_->weights.push_back(
        {key, w.shape(), static_cast<std::uint8_t>(w.dtype())});
  }
  return std::move(recording_);
}

void Executor::materialize_weights(const StepProgram& program) {
  for (const StepProgram::WeightInit& w : program.weights) {
    (void)weight(w.key, w.shape, static_cast<tensor::DType>(w.dtype));
  }
}

void Executor::replay_kernel(const StepProgram& program,
                             const StepProgram::Op& op,
                             std::span<const sim::CompletionPtr> deps) {
  auto& stream = *node_.gpu(options_.gpu_index).compute_stream;
  if ((op.flags & StepProgram::kFlagBind) != 0 && !replay_pending_.empty()) {
    auto done = stream.enqueue_labeled(program.labels[op.b], op.x, deps);
    bind_pending_replay(done);
  } else {
    // No ready event is pending on this kernel, so nothing will ever wait
    // on its completion — skip minting one.
    stream.enqueue_labeled_detached(program.labels[op.b], op.x, deps);
  }
  executed_flops_ += op.y;
  if ((op.flags & StepProgram::kFlagAlgorithmic) != 0) {
    algorithmic_flops_ += op.y;
  }
  if ((op.flags & StepProgram::kFlagPace) != 0) pace();
}

/// Generic interpreter for cache-attached programs: value slots hold real
/// Tensors because the cache and offloader APIs consume them.
void Executor::replay_ops_tensor(const StepProgram& program,
                                 std::size_t begin, std::size_t end,
                                 sim::CompletionPtr& pre_optimizer_marker) {
  auto& stream = *node_.gpu(options_.gpu_index).compute_stream;
  auto& sim = node_.simulator();
  if (replay_slots_.size() < program.slot_count) {
    replay_slots_.resize(program.slot_count);
  }

  for (std::size_t index = begin; index < end; ++index) {
    const StepProgram::Op& op = program.ops[index];
    switch (op.kind) {
      case StepProgram::OpKind::alloc_activation: {
        Tensor t = factory_.cuda(program.labels[op.b], program.shapes[op.c],
                                 static_cast<tensor::DType>(op.dtype),
                                 hw::MemoryTag::activation);
        auto ready = sim::Completion::create(sim);
        t.storage()->set_ready_event(ready);
        replay_pending_.push_back(std::move(ready));
        replay_slots_[op.a] = std::move(t);
        break;
      }
      case StepProgram::OpKind::stage_input: {
        Tensor t = factory_.cuda(program.labels[op.b], program.shapes[op.c],
                                 static_cast<tensor::DType>(op.dtype),
                                 hw::MemoryTag::activation);
        t.storage()->set_ready_event(next_stage_input_ready());
        replay_slots_[op.a] = std::move(t);
        break;
      }
      case StepProgram::OpKind::alloc_host: {
        replay_slots_[op.a] =
            factory_.cpu(program.labels[op.b], program.shapes[op.c],
                         static_cast<tensor::DType>(op.dtype));
        break;
      }
      case StepProgram::OpKind::kernel: {
        replay_deps_scratch_.clear();
        for (std::uint32_t i = 0; i < op.count; ++i) {
          const std::uint32_t slot = program.aux[op.a + i];
          const auto& ready = replay_slots_[slot].storage()->ready_event();
          if (ready && !ready->done()) {
            replay_deps_scratch_.push_back(ready);
          }
        }
        replay_kernel(program, op, replay_deps_scratch_);
        break;
      }
      case StepProgram::OpKind::comm:
        replay_comm(program, op);
        break;
      case StepProgram::OpKind::enqueue_only:
        // The optimizer tail's completion is never observed (the step
        // drive gates on the step_end marker): don't mint one.
        stream.enqueue_labeled_detached(program.labels[op.b], op.x);
        break;
      case StepProgram::OpKind::marker_pre_optimizer:
        pre_optimizer_marker = stream.record_marker("pre_optimizer");
        break;
      case StepProgram::OpKind::drop_value:
        replay_slots_[op.a].reset();
        break;
      case StepProgram::OpKind::pack_passthrough:
        cache_->pack_passthrough(
            static_cast<core::TensorCache::PassKind>(op.flags));
        break;
      case StepProgram::OpKind::pack_dedup:
        cache_->pack_dedup();
        break;
      case StepProgram::OpKind::pack_keep:
        cache_->keep(op.a, replay_slots_[op.b],
                     static_cast<core::TensorCache::KeepReason>(op.flags));
        break;
      case StepProgram::OpKind::pack_store:
        cache_->store(op.a, replay_slots_[op.b]);
        break;
      case StepProgram::OpKind::unpack_passthrough:
        cache_->unpack_passthrough();
        break;
      case StepProgram::OpKind::unpack_entry:
        replay_slots_[op.b] = cache_->unpack_entry(op.a);
        break;
      case StepProgram::OpKind::prefetch:
        cache_->prefetch(
            std::span<const std::uint32_t>(&program.aux[op.a], op.count));
        break;
      case StepProgram::OpKind::release_entry:
        cache_->release(op.a);
        break;
    }
  }
}

/// Specialised interpreter for cache-less programs (keep-in-gpu and pure
/// recompute): no consumer ever needs a Tensor object, so a value slot is
/// just the device block. Host-tensor ops vanish entirely (nothing
/// observes host storage), and activations get no ready event: their
/// producer (the next kernel or comm) and every reader run in order on
/// this compute stream, which starts a task only after the previous one
/// fired (a comm gates later tasks through Stream::wait_for). Only stage
/// inputs keep a gate, the recv completion of another stage's send.
void Executor::replay_ops_raw(const StepProgram& program, std::size_t begin,
                              std::size_t end,
                              sim::CompletionPtr& pre_optimizer_marker) {
  auto& gpu_ctx = node_.gpu(options_.gpu_index);
  auto& allocator = *gpu_ctx.allocator;
  auto& stream = *gpu_ctx.compute_stream;
  if (replay_raw_slots_.size() < program.slot_count) {
    replay_raw_slots_.resize(program.slot_count);
  }

  for (std::size_t index = begin; index < end; ++index) {
    const StepProgram::Op& op = program.ops[index];
    switch (op.kind) {
      case StepProgram::OpKind::alloc_activation: {
        RawSlot& slot = replay_raw_slots_[op.a];
        slot.alloc = allocator.allocate(static_cast<util::Bytes>(op.y),
                                        hw::MemoryTag::activation);
        slot.ready.reset();  // ordered by the stream
        slot.live = true;
        break;
      }
      case StepProgram::OpKind::stage_input: {
        RawSlot& slot = replay_raw_slots_[op.a];
        slot.alloc = allocator.allocate(static_cast<util::Bytes>(op.y),
                                        hw::MemoryTag::activation);
        slot.ready = next_stage_input_ready();
        slot.live = true;
        break;
      }
      case StepProgram::OpKind::alloc_host:
        break;  // host storage is unobservable without a cache
      case StepProgram::OpKind::kernel: {
        replay_deps_scratch_.clear();
        for (std::uint32_t i = 0; i < op.count; ++i) {
          const std::uint32_t slot = program.aux[op.a + i];
          const auto& ready = replay_raw_slots_[slot].ready;
          if (ready && !ready->done()) {
            replay_deps_scratch_.push_back(ready);
          }
        }
        replay_kernel(program, op, replay_deps_scratch_);
        break;
      }
      case StepProgram::OpKind::comm:
        replay_comm(program, op);
        break;
      case StepProgram::OpKind::enqueue_only:
        // The optimizer tail's completion is never observed (the step
        // drive gates on the step_end marker): don't mint one.
        stream.enqueue_labeled_detached(program.labels[op.b], op.x);
        break;
      case StepProgram::OpKind::marker_pre_optimizer:
        pre_optimizer_marker = stream.record_marker("pre_optimizer");
        break;
      case StepProgram::OpKind::drop_value: {
        RawSlot& slot = replay_raw_slots_[op.a];
        if (slot.live) allocator.free(slot.alloc);
        slot.live = false;
        slot.ready.reset();
        break;
      }
      default:
        util::unreachable("cache op in a cache-less program");
    }
  }
}

Executor::StepBaseline Executor::begin_replay_step(
    const StepProgram& program,
    const std::vector<sched::Command>& schedule) {
  util::expects(program.replayable,
                "replay of a program marked non-replayable");
  util::expects(program.schedule == schedule,
                "schedule changed since the program was recorded");
  util::expects(program.uses_cache == (cache_ != nullptr),
                "cache attachment changed since the program was recorded");
  node_.gpu(options_.gpu_index).allocator->reset_peaks();
  if (cache_ != nullptr) cache_->begin_replay(program.entries);
  return snapshot_baseline();
}

void Executor::replay_segment(const StepProgram& program,
                              std::size_t command_index,
                              sim::CompletionPtr& pre_optimizer_marker) {
  util::expects(command_index + 1 < program.segments.size(),
                "replayed command outside the recorded segment table");
  const std::size_t begin = program.segments[command_index];
  const std::size_t end = program.segments[command_index + 1];
  if (program.uses_cache) {
    replay_ops_tensor(program, begin, end, pre_optimizer_marker);
  } else {
    replay_ops_raw(program, begin, end, pre_optimizer_marker);
  }
}

void Executor::end_replay_step() {
  auto& gpu_ctx = node_.gpu(options_.gpu_index);
  for (auto& slot : replay_slots_) slot.reset();
  for (auto& slot : replay_raw_slots_) {
    if (slot.live) gpu_ctx.allocator->free(slot.alloc);
    slot.live = false;
    slot.ready.reset();
  }
  replay_pending_.clear();
  stage_input_ready_.clear();
}

}  // namespace ssdtrain::runtime
