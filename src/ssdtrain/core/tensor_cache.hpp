#pragma once

/// \file tensor_cache.hpp
/// The tensor cache (paper §III-B, §III-C) — SSDTrain's central data
/// structure. It interposes on the computational graph through the
/// pack/unpack saved-tensor hook pair (Alg. 1), maintains the module scope
/// stack through the four module hooks, keeps one record per micro-batch,
/// and coordinates the offloader:
///
///   * pack: weights / CPU tensors / small tensors pass through; tracked
///     activations are deduplicated by get_id; tensors are kept in GPU
///     memory once the planner's offload budget is reached, while in
///     backward propagation (recompute interop), or inside designated keep
///     scopes (the last module before backward); everything else starts an
///     asynchronous store and is registered by identifier.
///   * unpack: returns kept/loaded tensors, forwards in-flight stores
///     (data forwarding, §III-C2), and otherwise starts/joins a load whose
///     completion gates the consuming kernels.
///   * prefetch: entering a module in backward triggers loads for the
///     activations of the next module(s) in reverse forward order.
///   * release: when every module scope that referenced an activation has
///     finished its backward, the reference is dropped (Python GC analogue)
///     and the SSD extent is trimmed.
///
/// A step's entries live in one dense table and move through one state
/// machine, addressed by index (keep, store, unpack, load, prefetch,
/// release). The trace path decides each transition from TensorId-keyed
/// per-micro-batch records and assigns a new entry its index at pack time;
/// a replayed step (runtime::Executor::replay_segment) takes the same
/// transitions at the indices its program recorded.

#include <cstdint>
#include <limits>
#include <map>
#include <set>
#include <span>
#include <string>
#include <vector>

#include "ssdtrain/core/offloader.hpp"
#include "ssdtrain/graph/saved_tensors.hpp"
#include "ssdtrain/modules/model.hpp"
#include "ssdtrain/modules/module.hpp"
#include "ssdtrain/sim/simulator.hpp"
#include "ssdtrain/tensor/tensor.hpp"
#include "ssdtrain/tensor/tensor_id.hpp"

namespace ssdtrain::core {

struct TensorCacheConfig {
  /// Per-step activation bytes to offload; set by the adaptive planner
  /// (Fig. 3 "Set: offload size"). Tensors packed after the budget is
  /// exhausted stay in GPU memory (Alg. 1 line 5).
  util::Bytes offload_budget = std::numeric_limits<util::Bytes>::max();
  /// Alg. 1 line 2: tensors smaller than 2^20 elements pass through.
  std::int64_t min_offload_elements = 1 << 20;
  /// Data forwarding (§III-C2): serve backward from the in-flight store.
  bool forwarding = true;
  /// How many upcoming saved-tensor scopes (leaf modules, in reverse
  /// forward order) to prefetch when entering a module in backward. The
  /// paper notes any scheme that keeps the I/O queue busy is equivalent
  /// (§III-C2); a few modules of lookahead keeps the PCIe link fed without
  /// making reloaded activations resident long before use.
  int prefetch_lookahead = 4;
};

struct TensorCacheStats {
  std::uint64_t packs = 0;
  std::uint64_t unpacks = 0;
  std::uint64_t passthrough_weight = 0;
  std::uint64_t passthrough_cpu = 0;
  std::uint64_t passthrough_small = 0;
  std::uint64_t dedup_hits = 0;
  std::uint64_t offload_started = 0;
  std::uint64_t kept_budget = 0;
  std::uint64_t kept_backward = 0;
  std::uint64_t kept_scope = 0;
  std::uint64_t kept_offloader_refused = 0;
  /// Store permanently failed under fault injection; tensor kept on GPU.
  std::uint64_t kept_store_failed = 0;
  std::uint64_t forwards = 0;
  std::uint64_t prefetch_loads = 0;
  std::uint64_t miss_loads = 0;
  std::uint64_t wasted_stores = 0;  ///< scope ended before the store finished
  std::uint64_t releases = 0;
  util::Bytes offloaded_bytes = 0;
  util::Bytes kept_bytes = 0;
};

class TensorCache {
 public:
  enum class EntryState : std::uint8_t {
    offloading,  ///< store in flight; strong reference held
    offloaded,   ///< on SSD/host only; weak reference kept
    loading,     ///< load in flight; consumers wait on its completion
    loaded,      ///< back in GPU memory
    kept,        ///< never offloaded (budget / keep scope / backward)
  };

  /// Which of Alg. 1's early-outs a pack took (line 2).
  enum class PassKind : std::uint8_t { weight, cpu, small };

  /// Why a pack kept the tensor in GPU memory (Alg. 1 lines 5-6).
  enum class KeepReason : std::uint8_t { budget, backward, scope };

  /// Record-time constants of one entry: the stable TensorId the offloader
  /// files the extent under, and the interned label plus shape/dtype/bytes
  /// a reload is rebuilt from. The trace path appends one per new entry as
  /// it packs; a recorded program keeps that table, and its replays address
  /// it by index.
  struct EntryInfo {
    tensor::TensorId id;
    util::Label label;
    tensor::TensorShape shape;
    tensor::DType dtype = tensor::DType::fp16;
    util::Bytes bytes = 0;
  };

  /// Observer for the step recorder: every entry transition the cache takes
  /// during the recorded step is reported here, with the entry's index, so
  /// runtime::StepRecorder can compile it into a StepProgram op. Pure
  /// observation — the trace path behaves identically with or without it.
  class TraceRecorder {
   public:
    virtual ~TraceRecorder() = default;
    virtual void cache_pack_passthrough(PassKind kind) = 0;
    virtual void cache_pack_dedup() = 0;
    virtual void cache_pack_keep(const tensor::Tensor& t, std::uint32_t entry,
                                 KeepReason reason) = 0;
    /// A store *attempt* (replay re-attempts and handles refusal itself).
    virtual void cache_pack_store(const tensor::Tensor& t,
                                  std::uint32_t entry) = 0;
    virtual void cache_unpack_passthrough() = 0;
    virtual void cache_unpack_entry(std::uint32_t entry,
                                    const tensor::Tensor& result) = 0;
    /// Prefetch window candidates, in trace iteration order (replay
    /// re-checks each candidate's live state, exactly as the trace does).
    virtual void cache_prefetch(std::span<const std::uint32_t> candidates) = 0;
    virtual void cache_release(std::uint32_t entry) = 0;
  };

  TensorCache(sim::Simulator& sim, Offloader& offloader,
              TensorCacheConfig config);
  TensorCache(const TensorCache&) = delete;
  TensorCache& operator=(const TensorCache&) = delete;

  // -- setup (the "few lines added to the training script", §III-A) --------
  /// Records a weight's identifier — and its transpose's — so pack passes
  /// them through (§III-C1).
  void register_weight(const tensor::Tensor& weight);

  /// Installs the four module hooks on every module of \p model and learns
  /// the transformer-layer scopes used for prefetch ordering.
  void install_hooks(modules::Model& model);

  /// The pack/unpack pair to install on the executor.
  [[nodiscard]] const graph::SavedTensorHooks& hooks() const {
    return hooks_;
  }

  // -- scheduler hints (paper Fig. 2 ③④) -----------------------------------
  void on_step_begin();
  void on_micro_batch(int index);
  void on_forward_begin();
  void on_backward_begin();
  /// Module scopes whose activations must stay in GPU memory (the last
  /// module when backward follows immediately, Fig. 2 ④).
  void set_keep_scopes(std::vector<const modules::Module*> scopes);

  // -- record/replay ---------------------------------------------------------
  /// Attaches (or detaches, with nullptr) the step recorder. Active only
  /// while runtime::Executor records a step.
  void set_trace_recorder(TraceRecorder* recorder) { recorder_ = recorder; }

  /// Starts a replayed step on \p table, the recorded program's entry table
  /// (it must outlive the step): every entry starts unpacked, and the
  /// transitions below address them by index.
  void begin_replay(std::span<const EntryInfo> table);

  // -- entry transitions -----------------------------------------------------
  /// The one per-entry state machine, addressed by the entry's index in
  /// entry_table(). The pack/unpack hooks call these once Alg. 1 has decided
  /// what to do with a tensor; step replay calls them with the
  /// decisions its program recorded. Entry states, forwarding, refusal
  /// fallback and wasted-store accounting are evaluated live either way.
  void pack_passthrough(PassKind kind);
  void pack_dedup();
  /// Alg. 1 line 6: keeps \p t in GPU memory as entry \p index.
  void keep(std::uint32_t index, const tensor::Tensor& t, KeepReason reason);
  /// Alg. 1 line 7: starts storing \p t as entry \p index, or keeps it when
  /// the offloader refuses. Returns whether a store started.
  bool store(std::uint32_t index, const tensor::Tensor& t);
  void unpack_passthrough();
  /// Alg. 1 lines 11-12: returns the kept/loaded tensor, forwards an
  /// in-flight store, or starts/joins the load that gates the consumers.
  [[nodiscard]] tensor::Tensor unpack_entry(std::uint32_t index);
  /// Starts a load for every candidate still packed and offloaded.
  void prefetch(std::span<const std::uint32_t> candidates);
  /// Drops the cache's reference and trims the offloaded copy.
  void release(std::uint32_t index);

  // -- introspection ---------------------------------------------------------
  [[nodiscard]] const TensorCacheStats& stats() const { return stats_; }
  [[nodiscard]] bool is_weight(const tensor::Tensor& t) const;
  [[nodiscard]] bool in_backward() const { return in_backward_; }
  [[nodiscard]] int current_micro_batch() const { return current_mb_; }
  /// Entries packed this step and not yet released.
  [[nodiscard]] std::size_t tracked_entries() const;
  [[nodiscard]] const TensorCacheConfig& config() const { return config_; }
  /// This step's entry table: the trace path's own, or the replayed
  /// program's.
  [[nodiscard]] std::span<const EntryInfo> entry_table() const {
    return table_;
  }

  /// Rebalances the offload budget mid-run (sessions call this after a
  /// structural fault degrades the SSD array's sustainable bandwidth).
  /// Takes effect from the next pack decision.
  void set_offload_budget(util::Bytes budget) {
    config_.offload_budget = budget;
  }
  /// Live state of a tracked tensor in the current micro-batch (tests).
  [[nodiscard]] EntryState entry_state(const tensor::TensorId& id) const;
  /// Live state of entry \p index (tests).
  [[nodiscard]] EntryState entry_state(std::uint32_t index) const;
  /// Whether entry \p index holds an offloaded copy or is writing one:
  /// false once its store failed for good or was refused.
  [[nodiscard]] bool entry_stored(std::uint32_t index) const {
    return entries_[index].stored;
  }

 private:
  /// Live state of one entry; its constants are entry_table()[index].
  struct Entry {
    EntryState state = EntryState::kept;
    tensor::Tensor strong;
    tensor::WeakTensor weak;
    sim::CompletionPtr store_done;
    bool forwarded = false;
    bool stored = false;  ///< an offloaded copy exists (or is being written)
    bool released = true;  ///< not packed yet this step, or released
  };

  /// A trace-path entry and the module scopes that saved it.
  struct Tracked {
    std::uint32_t index = 0;
    std::set<const modules::Module*> scopes;
  };

  /// One leaf scope's saves, in forward order — the prefetch unit.
  struct SequenceSlot {
    const modules::Module* scope = nullptr;
    std::vector<std::uint32_t> entries;
  };

  /// The trace path's view of one micro-batch: Alg. 1's get_id dedup map
  /// and the scope bookkeeping that decides releases and prefetch order.
  struct Record {
    std::map<tensor::TensorId, Tracked> tracked;  ///< until released
    std::vector<SequenceSlot> sequence;  ///< leaf scopes in forward order
    /// Remaining forward occurrences per scope; backward consumes them in
    /// reverse to locate its position in the sequence.
    std::map<const modules::Module*, std::vector<std::size_t>> positions;
    util::Bytes offloaded_bytes = 0;
  };

  graph::PackedValue pack(const tensor::Tensor& t);
  tensor::Tensor unpack(const graph::PackedValue& value);

  void on_forward_pre(modules::Module& m);
  void on_forward_post(modules::Module& m);
  void on_backward_pre(modules::Module& m);
  void on_backward_post(modules::Module& m);

  Record& record();
  /// Marks entry \p index packed (each entry is packed once per step).
  Entry& arm(std::uint32_t index);
  /// Entry \p index if it is still packed in step \p epoch, else null: a
  /// completion waiter can outlive its entry's release or its step.
  Entry* live_entry(std::uint32_t index, std::uint32_t epoch);
  void start_load(std::uint32_t index);
  /// Prefetches the slots preceding sequence position \p position.
  void prefetch_before(std::size_t position);
  /// Removes \p m from every entry's scope set; releases drained entries.
  void retire_scope(const modules::Module& m);
  [[nodiscard]] bool in_keep_scope() const;

  sim::Simulator& sim_;
  Offloader& offloader_;
  TensorCacheConfig config_;
  graph::SavedTensorHooks hooks_;
  tensor::IdAssigner ids_;
  std::set<tensor::TensorId> weight_ids_;
  std::set<const modules::Module*> layer_set_;
  std::vector<const modules::Module*> scope_stack_;
  std::vector<const modules::Module*> layer_scope_stack_;
  std::set<const modules::Module*> keep_scopes_;
  std::map<int, Record> records_;
  int current_mb_ = 0;
  bool in_backward_ = false;
  TensorCacheStats stats_;

  TraceRecorder* recorder_ = nullptr;
  std::vector<EntryInfo> recorded_;  ///< the trace path's table, as it packs
  std::span<const EntryInfo> table_;  ///< recorded_ or a replayed program's
  std::vector<Entry> entries_;        ///< live state, index-aligned with table_
  std::uint32_t epoch_ = 0;           ///< steps begun
  std::vector<std::uint32_t> prefetch_scratch_;  ///< one prefetch window
};

}  // namespace ssdtrain::core
