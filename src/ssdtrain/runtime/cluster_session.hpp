#pragma once

/// \file cluster_session.hpp
/// ClusterSession — cluster-scale execution on one shared simulator. Where
/// TrainingSession gives one Executor the whole machine, a ClusterSession
/// instantiates one Executor per pipeline stage (times the virtual stages
/// of an interleaved schedule), each over its own layer slice of the model
/// with its own offloader, tensor cache, and planner budget, and drives the
/// per-stage command streams round-robin:
///
///   * stage boundaries exchange activations (and their gradients) as flows
///     on the same BandwidthNetwork the offloaders use, so pipeline traffic
///     contends with SSD offload traffic on each GPU's PCIe link;
///   * TP all-reduces become flows on the shared NVLink fabric (the closed
///     form stays the zero-contention validation reference);
///   * DP gradient reduction (plain or ZeRO stage 1/2/3 reduce-scatter /
///     all-gather) rides per-GPU DP-fabric links and gates the optimizer,
///     with optional ZeRO-Offload-style NVMe optimizer-state traffic;
///   * each stage records its StepProgram once and replays it afterwards,
///     so a deep pipeline's steady-state step costs what a single-GPU
///     replayed step does (per stage).
///
/// Each virtual stage is a StageRuntime (the composition TrainingSession
/// also uses), and one RecoveryLedger serves the whole pipeline. A step
/// runs every stage's phases: all stages begin, the lanes interleave
/// run_command across stages, all mark their step end, the shared
/// simulator is driven until every marker is done, then every stage
/// collects, seals its recording and ends its step. With pipeline_parallel = tensor_parallel =
/// data_parallel = 1 on GPU 0 of hw::catalog::cluster_node(1, N) — the case
/// the cluster tests pin — the StepStats, checkpoint accounting and goodput
/// are bit-identical to a TrainingSession on the same node and GPU. The two
/// drivers stay separate because they differ beyond that case: the cluster
/// places stage s on GPU s and sends TP all-reduces as NVLink flows, while
/// TrainingSession runs on any configured GPU and uses the closed-form
/// all-reduce model.

#include <map>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "ssdtrain/hw/catalog.hpp"
#include "ssdtrain/hw/node.hpp"
#include "ssdtrain/runtime/recovery_ledger.hpp"
#include "ssdtrain/runtime/session.hpp"
#include "ssdtrain/runtime/stage_runtime.hpp"
#include "ssdtrain/runtime/step_stats.hpp"
#include "ssdtrain/sched/schedule.hpp"

namespace ssdtrain::runtime {

/// Per-stage record/replay staggers the recordings: stage chunk c records
/// on step c (one recorder per GPU at a time) unless its program-cache
/// lookup hits. The SSDTrain knobs and the budget override apply to every
/// stage's planner, offloader and cache.
struct ClusterConfig : SessionOptions {
  /// SSDs in each GPU's RAID0 array when the node is auto-built (one GPU
  /// per pipeline stage via hw::catalog::cluster_node).
  int ssds_per_gpu = 4;
  /// Explicit machine override; must carry >= pipeline_parallel GPUs.
  /// Stage s runs on GPU s; further GPUs host no stage.
  std::optional<hw::NodeConfig> node;
  sched::PipelineKind schedule = sched::PipelineKind::one_f_one_b;
  /// Model chunks per GPU (Megatron interleaved 1F1B). 1 for the plain
  /// schedules.
  int virtual_stages = 1;
  /// Launch/hop latency of pipeline sends and DP collectives.
  util::Seconds fabric_hop_latency = util::us(5);
  /// Per-GPU DP-fabric link bandwidth (NIC class; the DP group crosses
  /// nodes, unlike NVLink-local TP).
  util::BytesPerSecond dp_fabric_bandwidth = util::gbps(25);
  /// ZeRO-Offload-style optimizer-state placement on this GPU's NVMe
  /// array: the optimizer's state partition is read before and written
  /// back after the weight update, as flows on the GDS paths.
  bool zero_offload_optimizer = false;
};

/// One virtual stage's measurements (virtual stage = chunk * pp + gpu).
struct StageStepStats {
  int gpu = 0;
  int chunk = 0;
  StepStats stats;
};

struct ClusterStepStats {
  /// Cluster-level aggregate. Peaks/busy are per-GPU reductions, byte and
  /// FLOP counters sums over stages; for a 1/1/1 cluster this is the
  /// single stage's StepStats verbatim (bit-identical to TrainingSession).
  StepStats combined;
  /// Makespan of the compute pipeline: step start to the last GPU's
  /// pipeline_end marker (excludes the optimizer tail).
  util::Seconds pipeline_time = 0.0;
  /// 1 - mean per-GPU busy fraction over pipeline_time. Converges to
  /// ideal_bubble as fabric/SSD contention goes to zero.
  double measured_bubble = 0.0;
  double ideal_bubble = 0.0;  ///< (pp-1)/(mb*v + pp-1), the closed form
  util::Bytes p2p_bytes = 0;  ///< cross-GPU boundary-activation traffic
  util::Bytes dp_bytes = 0;   ///< DP/ZeRO fabric traffic (all GPUs)
  std::vector<StageStepStats> per_stage;
};

class ClusterSession {
 public:
  explicit ClusterSession(ClusterConfig config);
  ~ClusterSession();
  ClusterSession(const ClusterSession&) = delete;
  ClusterSession& operator=(const ClusterSession&) = delete;

  /// Runs one cluster step (all stages, all micro-batches) and returns its
  /// measurements.
  ClusterStepStats run_step();
  std::vector<ClusterStepStats> run_steps(int n);

  [[nodiscard]] const ClusterConfig& config() const { return config_; }
  [[nodiscard]] hw::TrainingNode& node() { return *node_; }
  [[nodiscard]] int gpu_count() const;
  /// pipeline_parallel * virtual_stages model slices.
  [[nodiscard]] int virtual_stage_count() const;
  /// The virtual stage's recorded program: null before its recording step
  /// (stage chunk c records on step c), after a recording failure, or with
  /// use_replay = false.
  [[nodiscard]] const StepProgram* program(int virtual_stage) const;
  /// Null unless config.faults has specs.
  [[nodiscard]] fault::FaultInjector* injector() { return injector_.get(); }

  /// Null unless config.checkpoint is enabled.
  [[nodiscard]] ckpt::CheckpointWriter* checkpoint_writer() {
    return ledger_->writer();
  }
  /// Steps durably completed (rolls back on destructive crashes); diverges
  /// from the run_step call count once a recovery replays lost steps.
  [[nodiscard]] std::uint64_t logical_step() const {
    return ledger_->logical_step();
  }
  /// Wall-clock decomposition: useful step time vs checkpoint/restore/lost
  /// overhead, cluster-wide.
  [[nodiscard]] ckpt::GoodputReport goodput() { return ledger_->goodput(); }

 private:
  struct GpuLane;  ///< one GPU's expanded command stream

  /// Builds one virtual stage: a layer slice of the model whose schedule is
  /// this chunk's forwards/backwards in stage order closed by its own
  /// optimizer command.
  void build_stage(int virtual_stage);
  /// Dispatches one lane command; false when a recv's matching send has
  /// not been dispatched yet (the lane stalls, NCCL blocking-recv style).
  bool dispatch(int gpu, const sched::Command& command);
  /// Launches the boundary-activation (or gradient) flow of one
  /// micro-batch when the sender's stream reaches this point.
  void launch_boundary_send(int src_virtual_stage, int micro_batch,
                            bool forward);
  /// The per-GPU end-of-pipeline sequence: bubble marker, DP gradient
  /// reduction flows, optimizer-state fetch, then every chunk's optimizer
  /// command, then the post-optimizer all-gather / state writeback.
  void dispatch_optimizer(int gpu);
  sim::CompletionPtr launch_fabric_flow(
      util::Label label, util::Bytes bytes,
      std::vector<sim::BandwidthNetwork::ResourceId> path, int gpu,
      util::Seconds latency);

  ClusterConfig config_;
  std::unique_ptr<hw::TrainingNode> node_;
  /// Indexed by virtual stage vs = chunk * pipeline_parallel + gpu.
  std::vector<std::unique_ptr<StageRuntime>> stages_;
  std::vector<GpuLane> lanes_;  ///< indexed by GPU / pipeline stage
  /// Boundary tensors each virtual stage consumes per forward micro-batch.
  std::vector<int> recv_counts_;
  util::Bytes boundary_bytes_ = 0;  ///< one {seq, mb, hidden} fp16 tensor
  double ideal_bubble_ = 0.0;
  int step_index_ = 0;
  std::unique_ptr<fault::FaultInjector> injector_;
  std::uint64_t fault_epoch_seen_ = 0;
  /// Step index the record stagger counts from; reset when a structural
  /// fault discards the programs so re-recording staggers the same way.
  int record_base_ = 0;

  // Per-step driver state, keyed {virtual stage, micro batch}: the recv
  // completion registered by the matching send's dispatch.
  std::map<std::pair<int, int>, sim::CompletionPtr> pending_forward_;
  std::map<std::pair<int, int>, sim::CompletionPtr> pending_backward_;
  util::Bytes p2p_bytes_step_ = 0;
  util::Bytes dp_bytes_step_ = 0;

  // Checkpoint / recovery. step_index_ stays monotone — it drives the
  // record stagger — so the rollbackable step count lives in the ledger.
  std::vector<int> stage_gpus_;  ///< 0..pp-1, for the ledger
  std::unique_ptr<RecoveryLedger> ledger_;
};

}  // namespace ssdtrain::runtime
