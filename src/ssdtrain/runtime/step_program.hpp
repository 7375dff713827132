#pragma once

/// \file step_program.hpp
/// Step-graph record/replay. Training is iterative: every steady-state step
/// executes the same compute graph (the property GreedySnake and 10Cache
/// schedule around), but the trace path re-derives it each step — module
/// virtual dispatch, per-kernel label strings, shared_ptr tensor handles,
/// GraphNode heap nodes, and TensorId-keyed map lookups in the tensor
/// cache. Recording flattens one traced step into a StepProgram: a dense
/// array of compact ops over interned util::Label names, precomputed
/// byte/flop/duration values, dense value-slot indices, and the tensor
/// cache's own entry table, indexed as the cache assigned it at pack time.
/// The array is cut into one segment per schedule command, and
/// Executor::replay_segment walks a command's segment and drives the
/// streams, offloader, and the cache's index-addressed entry transitions
/// (the same ones the trace path's hooks call) directly, with
/// bit-identical results (same StepStats, same event order) and zero
/// steady-state heap allocations on the no-offload path.
///
/// What stays dynamic at replay — everything timing-dependent re-evaluates
/// against the live simulation, exactly like the trace path does:
///   * kernel gating (`ready && !done()` per dependency) with a cache;
///     without one only stage inputs gate, as an activation's producer and
///     readers share one FIFO compute stream,
///   * cache entry states (offloading/offloaded/... at unpack time),
///   * data forwarding, prefetch hits, wasted-store accounting,
///   * offloader refusal (pinned-pool exhaustion falls back to keeping).
/// What is resolved at record time — everything structural: the op
/// sequence itself, pack decisions (budget/backward/keep-scope), labels,
/// shapes, kernel durations, dependency slots, release points, and the
/// exact positions where the planner dropped its tensor references
/// (observed through the device allocator and replayed as drop_value ops,
/// so allocator peaks match byte for byte).
///
/// A program is valid only for the exact (model, schedule, parallel
/// config, strategy) it was recorded from; each stage records once (a
/// TrainingSession on its first step) and replays every step after.

#include <cstdint>
#include <map>
#include <set>
#include <span>
#include <string>
#include <vector>

#include "ssdtrain/core/tensor_cache.hpp"
#include "ssdtrain/hw/device_allocator.hpp"
#include "ssdtrain/sched/schedule.hpp"
#include "ssdtrain/tensor/shape.hpp"
#include "ssdtrain/tensor/tensor.hpp"
#include "ssdtrain/util/label.hpp"

namespace ssdtrain::runtime {

struct StepProgram {
  enum class OpKind : std::uint8_t {
    alloc_activation,  ///< a=slot, b=label, c=shape, dtype
    alloc_host,        ///< a=slot, b=label, c=shape, dtype
    kernel,        ///< b=label, x=duration, y=flops, a/count=dep slots (aux)
    enqueue_only,  ///< b=label, x=duration; no bind, no pace (optimizer tail)
    marker_pre_optimizer,
    drop_value,          ///< a=slot: the planner's reference drop point
    pack_passthrough,    ///< flags=PassKind
    pack_dedup,
    pack_keep,           ///< a=entry, b=slot, flags=KeepReason
    pack_store,          ///< a=entry, b=slot (attempt; refusal re-decided)
    unpack_passthrough,
    unpack_entry,        ///< a=entry, b=destination slot
    prefetch,            ///< a/count=candidate entries (aux)
    release_entry,       ///< a=entry
    stage_input,         ///< a=slot, b=label, c=shape, dtype, y=bytes
    comm,                ///< b=label, x=latency (s), y=traffic bytes
  };

  // Kernel-op flags.
  static constexpr std::uint8_t kFlagAlgorithmic = 1;  ///< counts toward MFU
  static constexpr std::uint8_t kFlagBind = 2;  ///< fire pending ready events
  static constexpr std::uint8_t kFlagPace = 4;  ///< bounded launch-ahead

  struct Op {
    OpKind kind = OpKind::kernel;
    std::uint8_t flags = 0;
    std::uint8_t dtype = 0;
    std::uint16_t count = 0;  ///< aux element count (deps / candidates)
    std::uint32_t a = 0;      ///< slot / entry / aux begin (see OpKind)
    std::uint32_t b = 0;      ///< label index / slot (see OpKind)
    std::uint32_t c = 0;      ///< shape index
    double x = 0.0;           ///< precomputed duration (seconds)
    double y = 0.0;           ///< flops
  };

  /// One executor weight (and its persistent gradient buffer). Weights are
  /// created lazily by the module tree on the trace step and live across
  /// steps, so a warm session's replay finds them already on the device. A
  /// cold process replaying a *deserialized* program never runs that lazy
  /// path; the executor snapshots its weight table here when a recording
  /// is sealed, and Executor::materialize_weights pre-creates the entries
  /// on a program-cache hit so allocator live/peak bytes match a warm
  /// session exactly.
  struct WeightInit {
    std::string key;
    tensor::TensorShape shape;
    std::uint8_t dtype = 0;
  };

  std::vector<Op> ops;
  std::vector<std::uint32_t> aux;  ///< dep-slot and prefetch-entry lists
  std::vector<util::Label> labels;
  std::vector<tensor::TensorShape> shapes;
  /// The cache's record-time entry table (pack/unpack/prefetch/release
  /// ops address it by index).
  std::vector<core::TensorCache::EntryInfo> entries;
  std::vector<WeightInit> weights;  ///< creation-order executor weights
  std::uint32_t slot_count = 0;
  std::vector<sched::Command> schedule;
  bool uses_cache = false;

  /// Op-range boundaries, one segment per schedule command: segment i
  /// covers ops [segments[i], segments[i+1]). A sealed program has
  /// schedule.size() + 1 non-decreasing boundaries from 0 to ops.size(),
  /// so a stage replays exactly the ops of the command it runs next.
  std::vector<std::uint32_t> segments;

  /// False when the recorded step cannot be replayed faithfully (leaked
  /// cache entries, a gated tensor outside the slot table); the session
  /// then stays on the trace path. invalid_reason says why.
  bool replayable = false;
  std::string invalid_reason;
};

/// Observes one traced step and compiles it into a StepProgram. Installed
/// by Executor::start_recording: the executor reports context-level events
/// (allocations, kernels, markers), the tensor cache reports pack/unpack/
/// prefetch/release decisions through the TraceRecorder interface, and the
/// device allocator reports identified frees so every synchronous storage
/// death lands as a drop_value op at its exact op-stream position.
class StepRecorder final : public core::TensorCache::TraceRecorder {
 public:
  /// \p cache is the executor's tensor cache, or null for a cache-less
  /// program; its entry table becomes the program's at finalize().
  StepRecorder(StepProgram& program, hw::DeviceAllocator& allocator,
               const core::TensorCache* cache);
  ~StepRecorder() override;
  StepRecorder(const StepRecorder&) = delete;
  StepRecorder& operator=(const StepRecorder&) = delete;

  // -- executor events -------------------------------------------------------
  void on_make_activation(const tensor::Tensor& t);
  void on_make_host_tensor(const tensor::Tensor& t);
  void on_stage_input(const tensor::Tensor& t);
  void on_comm(util::Label label, util::Bytes traffic, util::Seconds latency);
  /// Marks the start of the next schedule command's op range; the
  /// executor calls it once per traced command.
  void begin_command();
  void on_kernel(const std::string& label, util::Seconds duration,
                 util::Flops flops, bool algorithmic,
                 std::span<const tensor::Tensor> consumed);
  void on_plain_enqueue(util::Label label, util::Seconds duration);
  void on_pre_optimizer_marker();

  /// Brackets simulator execution (pace / drain): storage deaths observed
  /// inside are asynchronous (event-driven) and replay via the cache state
  /// machine; deaths outside are synchronous planner drops and become
  /// exact-position drop_value ops.
  void enter_sim() { ++sim_depth_; }
  void exit_sim() { --sim_depth_; }

  /// Seals the program: uninstalls the allocator observer, closes the
  /// segment table, inserts the deferred drop ops for
  /// asynchronously-released storages after their last op-stream use, and
  /// validates replayability.
  void finalize();

  // -- core::TensorCache::TraceRecorder --------------------------------------
  void cache_pack_passthrough(core::TensorCache::PassKind kind) override;
  void cache_pack_dedup() override;
  void cache_pack_keep(const tensor::Tensor& t, std::uint32_t entry,
                       core::TensorCache::KeepReason reason) override;
  void cache_pack_store(const tensor::Tensor& t, std::uint32_t entry) override;
  void cache_unpack_passthrough() override;
  void cache_unpack_entry(std::uint32_t entry,
                          const tensor::Tensor& result) override;
  void cache_prefetch(std::span<const std::uint32_t> candidates) override;
  void cache_release(std::uint32_t entry) override;

 private:
  /// Ceiling of Op::count (dependency and prefetch-candidate lists); a
  /// recorded step exceeding it falls back to the trace path rather than
  /// silently truncating.
  static constexpr std::size_t kMaxOpCount = 0xFFFF;

  static constexpr std::uint32_t kNoEntry = 0xFFFFFFFF;

  struct SlotInfo {
    std::size_t last_use_op = 0;
    std::uint64_t allocation_id = 0;  ///< 0 for host storage
    std::uint32_t store_entry = kNoEntry;  ///< cache entry it was stored as
    bool alive = true;       ///< no drop op emitted yet
    /// Died in-sim (or was kept by a failed store): drop after last_use_op.
    bool drop_pending = false;
  };

  std::uint32_t new_slot(const tensor::Tensor& t);
  std::uint32_t slot_of(const tensor::Tensor& t);
  void touch(std::uint32_t slot);
  std::uint32_t intern_label(util::Label label);
  std::uint32_t intern_shape(const tensor::TensorShape& shape);
  StepProgram::Op& push(StepProgram::OpKind kind);
  StepProgram::Op& pack_entry(StepProgram::OpKind kind,
                              const tensor::Tensor& t, std::uint32_t entry);
  void on_allocator_event(std::uint64_t id, bool is_free);
  void invalidate(std::string reason);

  StepProgram& program_;
  hw::DeviceAllocator& allocator_;
  const core::TensorCache* cache_;
  bool observer_installed_ = false;  ///< until finalize()
  int sim_depth_ = 0;

  std::vector<SlotInfo> slots_;
  /// Storage -> newest slot holding it (last-writer-wins: a consumed
  /// tensor is alive, so its storage always maps to a live slot).
  std::map<const tensor::Storage*, std::uint32_t> slot_of_storage_;
  /// Device allocation id -> every slot aliasing that storage.
  std::map<std::uint64_t, std::vector<std::uint32_t>> slots_of_allocation_;
  std::set<tensor::TensorId> packed_ids_;
  std::size_t releases_ = 0;
};

}  // namespace ssdtrain::runtime
