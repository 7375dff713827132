#pragma once

/// \file executor.hpp
/// The Executor binds the module tree to the simulated hardware: it is the
/// concrete ExecutionContext that allocates tensors from the GPU's
/// allocator, enqueues kernels on the compute stream (with bounded
/// launch-ahead, mimicking how the CPU submits GPU work ahead of execution,
/// paper §IV-B), wires saved tensors through the tensor cache's hooks, and
/// drives a schedule of forward/backward/optimizer commands while
/// collecting StepStats.
///
/// One step runs in phases, and both sessions drive them through
/// StageRuntime: begin_trace_step or begin_replay_step opens the step,
/// exec_command traces one schedule command through the module tree (and
/// records it while a recording is active), replay_segment replays the
/// recorded op range of one command (see step_program.hpp), and
/// record_step_end / collect_step / end_trace_step or end_replay_step close
/// it. TrainingSession runs the phases back to back; ClusterSession
/// interleaves the commands of many per-stage executors on one shared
/// simulator, where stage boundaries exchange activations as recv
/// completions (push_stage_input) and send flows. Replay is bit-identical
/// to the trace and allocation-free at steady state on the no-offload path.

#include <deque>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "ssdtrain/core/tensor_cache.hpp"
#include "ssdtrain/graph/graph.hpp"
#include "ssdtrain/hw/node.hpp"
#include "ssdtrain/modules/execution_context.hpp"
#include "ssdtrain/modules/model.hpp"
#include "ssdtrain/parallel/collectives.hpp"
#include "ssdtrain/parallel/parallel_config.hpp"
#include "ssdtrain/runtime/step_program.hpp"
#include "ssdtrain/runtime/step_stats.hpp"
#include "ssdtrain/sched/schedule.hpp"
#include "ssdtrain/sim/bandwidth_network.hpp"
#include "ssdtrain/tensor/tensor.hpp"

namespace ssdtrain::runtime {

struct ExecutorOptions {
  int gpu_index = 0;
  /// Maximum kernels the (simulated) CPU may run ahead of the GPU — about
  /// half a transformer layer. Python module overhead and launch-queue
  /// back-pressure keep the real CPU this close to the GPU, which is what
  /// bounds how much not-yet-offloaded activation memory piles up (the
  /// paper's §III-D estimate likewise assumes only ~two layers resident at
  /// once).
  int max_launch_ahead = 12;
  bool recompute = false;  ///< layerwise full recomputation strategy
  parallel::FabricSpec tp_fabric{util::gbps(300), util::us(5)};
  /// Fabric resources TP all-reduces traverse. Empty (the default) keeps
  /// the closed-form all_reduce_time on the compute stream — the validated
  /// single-GPU model. Non-empty switches TP collectives to flows on the
  /// shared BandwidthNetwork (ring traffic 2(n-1)/n·S over this path), so
  /// they contend with offload traffic and peer stages like real NVLink.
  std::vector<sim::BandwidthNetwork::ResourceId> tp_flow_path;
};

class Executor final : public modules::ExecutionContext {
 public:
  Executor(hw::TrainingNode& node, parallel::ParallelConfig parallel,
           ExecutorOptions options);

  /// Attaches the tensor cache whose pack/unpack hooks intercept saved
  /// tensors. Optional: without a cache this is the keep-everything (or
  /// pure recompute) baseline.
  void attach_cache(core::TensorCache* cache) { cache_ = cache; }

  [[nodiscard]] tensor::TensorFactory& factory() { return factory_; }

  // -- step phases ------------------------------------------------------------
  // A step is begin_*_step; exec_command or replay_segment once per schedule
  // command, in order; record_step_end; the caller drives the simulator
  // until the marker is done; collect_step; end_*_step. A recording wraps a
  // trace step: start_recording before it opens, finish_recording after
  // collect_step and before end_trace_step (that teardown is inter-step).

  /// Counter snapshot taken at step begin; collect_step() turns the deltas
  /// into StepStats. Shared by the trace and replay pipelines so both
  /// measure identically.
  struct StepBaseline {
    util::Seconds step_start = 0.0;
    util::Seconds busy_start = 0.0;
    util::Flops algo_start = 0.0;
    util::Flops exec_start = 0.0;
    util::Bytes offloaded_start = 0;
    util::Bytes ssd_written_start = 0;
  };

  /// Resets allocator peaks, opens the cache step, snapshots baselines.
  StepBaseline begin_trace_step();
  /// Replay mirror: validates the program against this executor's
  /// configuration and opens the cache's replay tables.
  StepBaseline begin_replay_step(const StepProgram& program,
                                 const std::vector<sched::Command>& schedule);
  /// Executes one compute command of \p schedule (forward / backward /
  /// optimizer_step; communication kinds are the session driver's job and
  /// trap here), opening its segment when recording. Updates
  /// \p pre_optimizer_marker on the optimizer command.
  void exec_command(modules::Model& model,
                    const std::vector<sched::Command>& schedule,
                    std::size_t index,
                    sim::CompletionPtr& pre_optimizer_marker);
  /// Replays the recorded op range of compute command \p command_index
  /// (program.segments, one per schedule command).
  void replay_segment(const StepProgram& program, std::size_t command_index,
                      sim::CompletionPtr& pre_optimizer_marker);
  /// Marks the end of this executor's step on its compute stream. The
  /// caller drives the simulator until every executor's marker is done.
  sim::CompletionPtr record_step_end();
  /// Deltas since \p base as StepStats; \p step_end_marker must be done.
  StepStats collect_step(const StepBaseline& base,
                         const sim::CompletionPtr& pre_optimizer_marker,
                         const sim::CompletionPtr& step_end_marker);
  /// Post-stats teardown (graph nodes / retained losses), the inter-step
  /// gap on the trace path.
  void end_trace_step();
  /// Post-stats teardown of the replay value slots.
  void end_replay_step();

  /// Starts compiling trace-path work into a fresh program for \p schedule.
  /// The executor owns that program until finish_recording hands it over.
  void start_recording(const std::vector<sched::Command>& schedule);
  /// Seals the recording, uninstalls the recorder and hands the program
  /// over. The program also gets the executor's weight table in creation
  /// order, so a serialized one can rebuild the weights in a fresh process.
  std::shared_ptr<StepProgram> finish_recording();
  /// The recorder compiling this executor's trace, or null outside a
  /// recording. StageRuntime brackets it across the step-end drive.
  [[nodiscard]] StepRecorder* active_recorder() const {
    return recorder_.get();
  }

  /// Pre-creates every weight in program.weights (a no-op for keys that
  /// already exist): a cache-hit replay in a cold process then starts from
  /// the same device state — weights and gradient buffers live — as the
  /// warm session that recorded the program, so allocator peaks and
  /// weights_live match bit for bit.
  void materialize_weights(const StepProgram& program);

  /// Queues the ready event the next make_stage_input tensor observes —
  /// the recv flow completion of an upstream stage's send. FIFO: models
  /// create their boundary inputs in a deterministic order.
  void push_stage_input(sim::CompletionPtr ready);

  /// ZeRO-partitioned optimizer: scales the optimizer kernels to this
  /// rank's share. \p weight_shard scales the parameter update (stages
  /// 1-3), \p grad_shard the gradient-norm and zero-grad passes (stages
  /// 2-3, where gradients are reduce-scattered). 1.0/1.0 reproduces the
  /// unpartitioned optimizer bit for bit.
  void set_optimizer_shards(double weight_shard, double grad_shard);

  [[nodiscard]] util::Bytes weight_grad_bytes() const {
    return weight_grad_bytes_;
  }

  // -- ExecutionContext -----------------------------------------------------
  tensor::Tensor make_activation(std::string label, tensor::TensorShape shape,
                                 tensor::DType dtype) override;
  tensor::Tensor weight(const std::string& key, tensor::TensorShape shape,
                        tensor::DType dtype) override;
  tensor::Tensor make_host_tensor(std::string label,
                                  tensor::TensorShape shape,
                                  tensor::DType dtype) override;
  tensor::Tensor make_stage_input(std::string label, tensor::TensorShape shape,
                                  tensor::DType dtype) override;
  void kernel(std::string label, util::Flops flops, util::Bytes bytes_read,
              util::Bytes bytes_written,
              std::vector<tensor::Tensor> consumed) override;
  void tp_all_reduce(util::Bytes bytes) override;
  graph::GraphNode& make_node(std::string name) override;
  const graph::SavedTensorHooks* hooks() const override;
  const parallel::ParallelConfig& parallel() const override;
  int micro_batch() const override { return micro_batch_; }
  bool recompute_mode() const override { return options_.recompute; }
  void push_hooks(const graph::SavedTensorHooks* hooks) override;
  void pop_hooks() override;
  void begin_recompute_segment() override { ++recompute_depth_; }
  void end_recompute_segment() override;

  [[nodiscard]] util::Bytes weights_live() const;

 private:
  StepBaseline snapshot_baseline();

  void bind_pending_ready_events(const sim::CompletionPtr& producer);
  void bind_pending_replay(const sim::CompletionPtr& producer);
  void pace();  ///< bounded launch-ahead: advance sim while queue too deep
  void run_optimizer(modules::Model& model);
  /// Launches \p traffic bytes over \p path when the compute stream reaches
  /// this point (stream-ordered collectives); the returned completion fires
  /// \p latency after the flow drains.
  sim::CompletionPtr launch_comm_flow(util::Label label, util::Bytes traffic,
                                      util::Seconds latency);
  void replay_comm(const StepProgram& program, const StepProgram::Op& op);
  sim::CompletionPtr next_stage_input_ready();

  hw::TrainingNode& node_;
  parallel::ParallelConfig parallel_;
  ExecutorOptions options_;
  tensor::TensorFactory factory_;
  /// The program being recorded and its recorder, both null outside a
  /// recording. Declared before every tensor-holding member: a step that
  /// throws leaves the recorder installed, and the tensors those members
  /// free when the executor dies must still find both alive.
  std::shared_ptr<StepProgram> recording_;
  std::unique_ptr<StepRecorder> recorder_;
  graph::Graph graph_;
  core::TensorCache* cache_ = nullptr;
  std::vector<const graph::SavedTensorHooks*> hook_stack_;
  std::map<std::string, tensor::Tensor> weights_;
  std::vector<std::string> weight_order_;  ///< keys in creation order
  util::Bytes weight_grad_bytes_ = 0;
  std::vector<tensor::Tensor> pending_ready_;
  std::deque<sim::CompletionPtr> stage_input_ready_;
  std::map<int, tensor::Tensor> loss_by_micro_batch_;
  int micro_batch_ = 0;
  int recompute_depth_ = 0;
  double optimizer_weight_shard_ = 1.0;
  double optimizer_grad_shard_ = 1.0;
  util::Flops algorithmic_flops_ = 0.0;
  util::Flops executed_flops_ = 0.0;

  /// Value slot for programs without a tensor cache: nothing downstream
  /// needs a Tensor object, so the slot carries just the device block and,
  /// for a stage input, its recv completion — no Storage, no shared_ptr.
  struct RawSlot {
    hw::DeviceAllocation alloc;
    sim::CompletionPtr ready;
    bool live = false;
  };

  void replay_ops_tensor(const StepProgram& program, std::size_t begin,
                         std::size_t end,
                         sim::CompletionPtr& pre_optimizer_marker);
  void replay_ops_raw(const StepProgram& program, std::size_t begin,
                      std::size_t end,
                      sim::CompletionPtr& pre_optimizer_marker);
  void replay_kernel(const StepProgram& program, const StepProgram::Op& op,
                     std::span<const sim::CompletionPtr> deps);

  // Replay state, reused across replayed steps (steady-state capacity).
  std::vector<tensor::Tensor> replay_slots_;
  std::vector<RawSlot> replay_raw_slots_;
  std::vector<sim::CompletionPtr> replay_pending_;
  std::vector<sim::CompletionPtr> replay_deps_scratch_;
};

}  // namespace ssdtrain::runtime
