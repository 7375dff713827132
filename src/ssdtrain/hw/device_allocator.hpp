#pragma once

/// \file device_allocator.hpp
/// Simulated GPU memory allocator with per-tag accounting. The paper's
/// headline metric — "activation memory peak" — is the high-water mark of
/// live activation bytes during a training step, exactly what
/// torch.cuda.max_memory_allocated reports per category. Tags separate
/// activations from weights/gradients/optimizer state/workspace so the
/// metric matches the paper's.

#include <array>
#include <cstdint>
#include <functional>
#include <stdexcept>
#include <string>
#include <string_view>

#include "ssdtrain/hw/block_allocator.hpp"
#include "ssdtrain/util/units.hpp"

namespace ssdtrain::hw {

/// Memory category for accounting. `activation` is the one SSDTrain manages.
enum class MemoryTag : std::uint8_t {
  weights = 0,
  gradients,
  optimizer_state,
  activation,
  workspace,
  other,
};
inline constexpr std::size_t kMemoryTagCount = 6;

std::string_view to_string(MemoryTag tag);

/// Handle to one live device allocation. Carries its arena block so the
/// free path is handle-driven — no id-keyed map between DeviceAllocator
/// and the arena (double-free detection lives in the arena's live-block
/// table). Treat `block` as opaque.
struct DeviceAllocation {
  std::uint64_t id = 0;
  util::Bytes bytes = 0;
  MemoryTag tag = MemoryTag::other;
  Block block;
};

/// Thrown when an allocation exceeds remaining device memory.
class OutOfDeviceMemory : public std::runtime_error {
 public:
  explicit OutOfDeviceMemory(const std::string& what)
      : std::runtime_error(what) {}
};

class DeviceAllocator {
 public:
  explicit DeviceAllocator(util::Bytes capacity);

  /// Allocates \p bytes under \p tag. Throws OutOfDeviceMemory when the
  /// device cannot satisfy the request.
  DeviceAllocation allocate(util::Bytes bytes, MemoryTag tag);

  /// Frees a live allocation. Throws on double-free.
  void free(const DeviceAllocation& allocation);

  [[nodiscard]] util::Bytes capacity() const;
  /// Sum over tags: every tagged byte is an arena block.
  [[nodiscard]] util::Bytes live_total() const { return arena_.used(); }
  [[nodiscard]] util::Bytes live(MemoryTag tag) const;

  /// High-water mark of live bytes for \p tag since the last reset.
  [[nodiscard]] util::Bytes peak(MemoryTag tag) const;

  /// High-water mark of total live bytes since the last reset.
  [[nodiscard]] util::Bytes peak_total() const;

  /// Resets peaks to current live values (called at step boundaries, like
  /// torch.cuda.reset_peak_memory_stats).
  void reset_peaks();

  /// Hook invoked with (+bytes on alloc / -bytes on free, tag). The CUDA
  /// malloc hook library (paper §III-A) attaches here to register memory
  /// with GDS.
  using AllocationHook = std::function<void(util::Bytes delta, MemoryTag tag)>;
  void set_allocation_hook(AllocationHook hook) { hook_ = std::move(hook); }

  /// Identified alloc/free observer for the step recorder: unlike the
  /// AllocationHook it carries the allocation id, so the recorder can
  /// attribute each free to the value slot that owns the storage. Installed
  /// only while a step is being recorded.
  using TraceObserver = std::function<void(std::uint64_t id, util::Bytes bytes,
                                           MemoryTag tag, bool is_free)>;
  void set_trace_observer(TraceObserver observer) {
    trace_observer_ = std::move(observer);
  }

 private:
  std::size_t tag_index(MemoryTag tag) const;

  BlockAllocator arena_;
  std::uint64_t next_id_ = 1;
  std::array<util::Bytes, kMemoryTagCount> live_{};
  std::array<util::Bytes, kMemoryTagCount> peak_{};
  util::Bytes peak_total_ = 0;
  AllocationHook hook_;
  TraceObserver trace_observer_;
};

}  // namespace ssdtrain::hw
