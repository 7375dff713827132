#pragma once

/// \file offloader.hpp
/// The offloader (paper §III-A): one engine that moves CUDA tensors out to
/// an offload target and back, over one of two tiers:
///   * SsdTier — the NVMe RAID0 array in the same node, via the GDS direct
///     path (GPU -> PCIe -> SSD, no host bounce) or the bounce path for the
///     no-GDS ablation;
///   * HostTier — the host pinned-memory pool over the plain D2H/H2D path
///     (the paper positions this for future remote-storage work).
/// The engine owns everything the two tiers share: the two FIFO thread
/// pools (store, load) that issue the I/O, one slot per offloaded tensor,
/// the statistics, the retry ladders of the fault policy and the deferred
/// release. A tier only places the bytes, names the transfer paths and
/// says how long an attempt takes to start. Store jobs wait for the
/// producing kernel's completion before touching the data; load
/// completions become the ready events consumers wait on. A release waits
/// for every transfer of its slot to leave flight before the copy goes.

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <utility>
#include <variant>
#include <vector>

#include "ssdtrain/core/malloc_hook.hpp"
#include "ssdtrain/fault/io_error.hpp"
#include "ssdtrain/hw/node.hpp"
#include "ssdtrain/sim/completion.hpp"
#include "ssdtrain/sim/thread_pool.hpp"
#include "ssdtrain/util/label.hpp"
#include "ssdtrain/tensor/tensor.hpp"
#include "ssdtrain/tensor/tensor_id.hpp"

namespace ssdtrain::fault {
class FaultInjector;
}  // namespace ssdtrain::fault

namespace ssdtrain::core {

struct OffloaderStats {
  std::uint64_t stores = 0;
  std::uint64_t loads = 0;
  util::Bytes bytes_stored = 0;
  util::Bytes bytes_loaded = 0;  ///< bytes read back from the target
  std::uint64_t releases = 0;
  std::uint64_t failed_stores = 0;  ///< host tier: pinned pool exhausted

  // Fault-injection reactions (all zero with the injector disabled).
  std::uint64_t io_retries = 0;     ///< attempts re-issued after an error
  std::uint64_t io_failures = 0;    ///< failed attempts (transient + timeout)
  std::uint64_t store_faults = 0;   ///< stores that permanently failed
  std::uint64_t load_faults = 0;    ///< loads that hit permanent data loss
  std::uint64_t recompute_fallbacks = 0;  ///< loads served by rematerialising
  util::Seconds retry_backoff_time = 0.0;
  util::Seconds fault_extra_latency = 0.0;  ///< injected ssd-latency paid
  util::Seconds recompute_fallback_time = 0.0;
};

/// Retry/timeout/backoff policy for offload I/O, driven by the fault
/// injector. With `injector == nullptr` (the default) every guard in the
/// transfer paths is skipped and behaviour is byte-identical to a build
/// without the fault layer.
struct OffloadFaultPolicy {
  fault::FaultInjector* injector = nullptr;
  int max_attempts = 4;
  util::Seconds initial_backoff = util::us(50);
  double backoff_multiplier = 2.0;
  /// 0 = no deadline; otherwise an attempt whose setup latency (base +
  /// injected) reaches this fails with IoErrorCode::timeout and retries.
  util::Seconds attempt_timeout = 0.0;
  /// Cost model for the recompute fallback after permanent data loss;
  /// 0 = four HBM traversals of the lost bytes (a conservative stand-in
  /// for re-running the producing layer's forward).
  double recompute_seconds_per_byte = 0.0;
};

/// Result of beginning a load: the destination tensor (device memory is
/// allocated immediately, as cudaMalloc would be) plus the completion that
/// fires when the data has arrived. The tensor's ready event is the same
/// completion.
struct LoadTicket {
  tensor::Tensor tensor;
  sim::CompletionPtr done;
};

/// Where one offloaded copy lives. Each tier only ever sees its own kind.
using Placement = std::variant<hw::ArrayExtent, hw::HostAllocation>;

/// The storage behind the offload engine. The engine decides when bytes
/// move and what a failed attempt means; the tier decides where they go.
class OffloadTier {
 public:
  using Path = std::vector<sim::BandwidthNetwork::ResourceId>;

  OffloadTier(int gpu_index, Path write_path, Path read_path)
      : gpu_index_(gpu_index),
        write_path_(std::move(write_path)),
        read_path_(std::move(read_path)) {}
  virtual ~OffloadTier() = default;
  OffloadTier(const OffloadTier&) = delete;
  OffloadTier& operator=(const OffloadTier&) = delete;

  /// The GPU whose activations the tier holds.
  [[nodiscard]] int gpu_index() const { return gpu_index_; }
  /// Flow paths of a store (GPU -> tier) and of a load (tier -> GPU).
  [[nodiscard]] const Path& write_path() const { return write_path_; }
  [[nodiscard]] const Path& read_path() const { return read_path_; }

  /// Room for \p bytes, or std::nullopt when the tier refuses the store.
  [[nodiscard]] virtual std::optional<Placement> allocate(
      util::Bytes bytes) = 0;
  virtual void free(const Placement& where) = 0;

  /// Delay between an attempt and the start of its flow, or std::nullopt
  /// for a tier whose flows start inside the attempt. Only a tier with a
  /// delay pays injected ssd-latency and can time out.
  [[nodiscard]] virtual std::optional<util::Seconds> setup_latency()
      const = 0;

  /// Wear and loss accounting; a tier without any keeps these no-ops.
  /// record_write runs once per store attempt, failed ones included (an
  /// aborted write still programmed NAND up to its failure point);
  /// record_read once per load that landed.
  virtual void record_write(const Placement& where) { (void)where; }
  virtual void record_read(const Placement& where) { (void)where; }
  /// True once a device holding part of \p where has dropped out.
  [[nodiscard]] virtual bool lost(const Placement& where) const {
    (void)where;
    return false;
  }

 private:
  int gpu_index_;
  Path write_path_;
  Path read_path_;
};

/// Extents on the GPU's RAID0 array. Every attempt pays the per-transfer
/// setup latency (and any injected ssd-latency) before its flow starts.
class SsdTier final : public OffloadTier {
 public:
  /// \p use_gds false bounces through host memory (the no-GDS ablation).
  /// With \p malloc_hook (the CUDA-malloc-hook library) buffers are
  /// pre-registered with GDS; without it every I/O pays a registration
  /// round trip.
  SsdTier(hw::TrainingNode& node, int gpu_index, bool use_gds = true,
          const CudaMallocHookLibrary* malloc_hook = nullptr);

  std::optional<Placement> allocate(util::Bytes bytes) override;
  void free(const Placement& where) override;
  [[nodiscard]] std::optional<util::Seconds> setup_latency() const override;
  void record_write(const Placement& where) override;
  void record_read(const Placement& where) override;
  [[nodiscard]] bool lost(const Placement& where) const override;

 private:
  hw::Raid0Array& array_;
  const CudaMallocHookLibrary* malloc_hook_;
};

/// Allocations in the node's pinned host pool. The only tier that can
/// refuse a store (pool exhausted); its flows start inside the attempt.
class HostTier final : public OffloadTier {
 public:
  HostTier(hw::TrainingNode& node, int gpu_index);

  std::optional<Placement> allocate(util::Bytes bytes) override;
  void free(const Placement& where) override;
  [[nodiscard]] std::optional<util::Seconds> setup_latency() const override;

 private:
  hw::PinnedMemoryPool& pool_;
};

struct OffloaderConfig {
  int store_workers = 2;
  int load_workers = 2;
  OffloadFaultPolicy fault;
};

class Offloader {
 public:
  Offloader(hw::TrainingNode& node, tensor::TensorFactory& factory,
            std::unique_ptr<OffloadTier> tier, OffloaderConfig config = {});
  Offloader(const Offloader&) = delete;
  Offloader& operator=(const Offloader&) = delete;

  /// Begins storing \p t under \p id. The transfer starts once \p ready
  /// fires (producer kernel done) and a store-pool worker is free. Returns
  /// the store completion, or std::nullopt if the tier cannot take the
  /// tensor right now (caller should keep it in GPU memory).
  std::optional<sim::CompletionPtr> store(const tensor::TensorId& id,
                                          const tensor::Tensor& t,
                                          sim::CompletionPtr ready);

  /// Begins loading \p id back into a fresh device tensor. \p label names
  /// the destination tensor and is RETAINED for the tensor's lifetime
  /// (tensors carry interned labels now), so pass an owning form —
  /// interned or Label::suffixed — never a Label::view over scratch text.
  LoadTicket load(const tensor::TensorId& id, util::Label label,
                  tensor::TensorShape shape, tensor::DType dtype);

  /// Releases the offloaded copy (TRIM on SSD, pool free on host). Safe to
  /// call while its store or loads are still in flight — the release is
  /// deferred until the last of them lands (or falls back to recompute).
  void release(const tensor::TensorId& id);

  [[nodiscard]] const OffloaderStats& stats() const { return stats_; }

  /// Typed status of the offloaded copy of \p id: data_lost after a store
  /// permanently failed (the cache then keeps the tensor on GPU instead of
  /// dropping it). none for healthy or unknown ids.
  [[nodiscard]] IoError store_status(const tensor::TensorId& id) const;

 private:
  struct Slot {
    Placement where;
    /// The DMA pin: device memory must stay mapped while the engine reads
    /// it, even after the tensor cache has dropped its own reference. Held
    /// from store() until the transfer lands or the ladder gives up. The
    /// store closures capture only the id: one waiting on the producer's
    /// ready event must not own the tensor whose storage owns that event,
    /// or a step that throws before the event fires leaks them both.
    tensor::Tensor pin;
    bool store_in_flight = true;
    int loads_in_flight = 0;  ///< loads reading the placement
    bool released = false;    ///< release() ran; drops once nothing flies
    bool lost = false;  ///< store permanently failed; placement freed
  };
  using SlotMap = std::map<tensor::TensorId, Slot>;

  /// One attempt's verdict: its setup delay (std::nullopt: the flow starts
  /// inside the attempt) and the error it fails with, if any.
  struct Attempt {
    std::optional<util::Seconds> setup;
    IoError error;
  };

  /// Prices an attempt (the tier's setup plus injected ssd-latency) and
  /// draws its outcome from the injector.
  Attempt begin_attempt();
  /// Re-issues a failed attempt after its setup delay plus the backoff for
  /// \p attempt. The worker stays occupied across the backoff, as a real
  /// retry loop holding its queue slot would.
  void retry(const Attempt& failed, int attempt, sim::EventFn next);

  /// The store ladder: attempt, retry with backoff, and once attempts run
  /// out keep the tensor on GPU (store_status() turns data_lost).
  void store_attempt(const tensor::TensorId& id,
                     sim::SimThreadPool::FinishToken finish, int attempt);
  /// The load ladder: attempt, retry with backoff, and once attempts run
  /// out rematerialise the tensor instead.
  void load_attempt(const tensor::TensorId& id, sim::CompletionPtr done,
                    tensor::Tensor pinned_dst,
                    sim::SimThreadPool::FinishToken finish, int attempt);
  /// Degradation ladder, last rung: fires \p done after the recompute cost
  /// of the lost bytes.
  void schedule_recompute(sim::CompletionPtr done, tensor::Tensor pinned_dst);

  SlotMap::iterator slot_of(const tensor::TensorId& id);
  /// A store or load left flight; a release that arrived meanwhile runs
  /// once it was the last transfer.
  void end_store(SlotMap::iterator it);
  void end_load(SlotMap::iterator it);
  /// When released and idle, frees the slot's placement (a lost store has
  /// none left) and forgets it.
  void drop_if_released(SlotMap::iterator it);

  hw::TrainingNode& node_;
  tensor::TensorFactory& factory_;
  std::unique_ptr<OffloadTier> tier_;
  OffloaderConfig config_;
  sim::SimThreadPool store_pool_;
  sim::SimThreadPool load_pool_;
  SlotMap slots_;
  OffloaderStats stats_;
};

}  // namespace ssdtrain::core
