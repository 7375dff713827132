#pragma once

/// \file malloc_hook.hpp
/// Simulated counterpart of the paper's "tiny CUDA API hooking library"
/// (§III-A): an LD_PRELOAD interposer that wraps cudaMalloc/cudaFree so
/// every allocation is registered (and deregistered) with GPUDirect Storage
/// for peak transfer performance — without replacing PyTorch's memory
/// allocator. Here it attaches to the DeviceAllocator's allocation hook and
/// tracks the registered footprint; the SSD tier consults it to decide
/// the per-transfer setup cost (pre-registered buffers skip the cuFile
/// registration round trip).

#include <cstdint>
#include <memory>

#include "ssdtrain/hw/device_allocator.hpp"
#include "ssdtrain/util/units.hpp"

namespace ssdtrain::core {

class CudaMallocHookLibrary {
 public:
  /// Interposes on the allocator; from now on every device allocation is
  /// GDS-registered at creation and deregistered at free.
  void install(hw::DeviceAllocator& allocator);

  [[nodiscard]] bool installed() const { return installed_; }
  [[nodiscard]] util::Bytes registered_bytes() const {
    return stats_->registered_bytes;
  }
  [[nodiscard]] std::uint64_t registrations() const {
    return stats_->registrations;
  }
  [[nodiscard]] std::uint64_t deregistrations() const {
    return stats_->deregistrations;
  }

  /// Per-I/O setup latency for a transfer touching \p bytes of device
  /// memory: negligible when buffers are pre-registered, a registration
  /// round trip (scaling mildly with size) when they are not.
  [[nodiscard]] util::Seconds transfer_setup_latency(util::Bytes bytes) const;

 private:
  /// Counter block shared with the installed hook closure. The allocator
  /// (and the tensors freed through it) can outlive this object — e.g.
  /// TrainingSession tears the hook library down before the node — so the
  /// closure keeps the stats alive instead of referring back to `this`.
  struct Stats {
    util::Bytes registered_bytes = 0;
    std::uint64_t registrations = 0;
    std::uint64_t deregistrations = 0;
  };

  bool installed_ = false;
  std::shared_ptr<Stats> stats_ = std::make_shared<Stats>();
};

}  // namespace ssdtrain::core
