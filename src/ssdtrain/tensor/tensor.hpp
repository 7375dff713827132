#pragma once

/// \file tensor.hpp
/// Simulated tensors. A Tensor is a cheap value handle (shared_ptr) to a
/// TensorImpl; several Tensor objects can view one underlying Storage, just
/// as torch.Tensor objects share an untyped_storage(). Storage owns the
/// (simulated) device memory and frees it on destruction — the C++ analogue
/// of Python garbage collection reclaiming an activation once the tensor
/// cache drops its reference (paper §III-B).
///
/// Names are interned util::Label ids, not std::string: creating a tensor
/// never materialises text (only observers, tracers, and error paths call
/// Label::str()). Factory-made tensors draw their Impl and Storage blocks
/// from the factory's SlabPool, so the step-replay hot path creates and
/// destroys tensors without touching malloc at steady state.

#include <cstdint>
#include <memory>
#include <optional>
#include <string>

#include "ssdtrain/hw/device_allocator.hpp"
#include "ssdtrain/sim/completion.hpp"
#include "ssdtrain/tensor/dtype.hpp"
#include "ssdtrain/tensor/shape.hpp"
#include "ssdtrain/util/label.hpp"
#include "ssdtrain/util/pool.hpp"

namespace ssdtrain::tensor {

enum class Device : std::uint8_t { cuda, cpu };

/// Refcounted backing store. Holds the device allocation (if on CUDA) and
/// the get_id() stamp attribute the tensor cache attaches on first sight.
class Storage {
 public:
  /// Device storage: takes ownership of a live allocation.
  Storage(hw::DeviceAllocator& allocator, hw::DeviceAllocation allocation);

  /// CPU storage (host heap; not tracked by the device allocator).
  explicit Storage(util::Bytes bytes);

  ~Storage();
  Storage(const Storage&) = delete;
  Storage& operator=(const Storage&) = delete;

  [[nodiscard]] util::Bytes bytes() const { return bytes_; }
  [[nodiscard]] Device device() const { return device_; }

  /// Device-allocator id of the backing allocation (0 for CPU storage).
  /// The step recorder keys its free observations on this.
  [[nodiscard]] std::uint64_t allocation_id() const {
    return allocation_.id;
  }

  /// get_id() attribute: logical timestamp from first processing (the paper
  /// attaches a wall-clock timestamp to t.untyped_storage(); a logical
  /// counter gives the same uniqueness deterministically).
  [[nodiscard]] std::optional<std::uint64_t> id_stamp() const {
    return id_stamp_;
  }
  void set_id_stamp(std::uint64_t stamp) { id_stamp_ = stamp; }

  /// Completion of the kernel that produces this tensor's contents. Offload
  /// stores wait on it (paper: "offloading of an activation starts once the
  /// operator producing it finishes"); consumers of reloaded tensors wait on
  /// the load completion installed here by the offloader. May be null for
  /// tensors with no producer (host inputs, weights) — treat as ready.
  [[nodiscard]] const sim::CompletionPtr& ready_event() const {
    return ready_event_;
  }
  void set_ready_event(sim::CompletionPtr event) {
    ready_event_ = std::move(event);
  }

 private:
  hw::DeviceAllocator* allocator_ = nullptr;  // null for CPU storage
  hw::DeviceAllocation allocation_;
  util::Bytes bytes_ = 0;
  Device device_ = Device::cpu;
  std::optional<std::uint64_t> id_stamp_;
  sim::CompletionPtr ready_event_;
};

class Tensor {
 public:
  Tensor() = default;  ///< undefined tensor (like a default torch.Tensor)

  Tensor(util::Label label, TensorShape shape, DType dtype,
         std::shared_ptr<Storage> storage);

  [[nodiscard]] bool defined() const { return impl_ != nullptr; }
  [[nodiscard]] const util::Label& label() const;
  [[nodiscard]] const TensorShape& shape() const;
  [[nodiscard]] DType dtype() const;
  [[nodiscard]] Device device() const;
  [[nodiscard]] bool is_cpu() const { return device() == Device::cpu; }
  [[nodiscard]] std::int64_t numel() const;
  [[nodiscard]] util::Bytes bytes() const;

  [[nodiscard]] const std::shared_ptr<Storage>& storage() const;

  /// View with the last two dims swapped; shares the storage (this is how
  /// linear layers register W^T for backward — same stamp, new shape).
  [[nodiscard]] Tensor transpose_view() const;

  /// Number of Tensor handles sharing this impl (diagnostics/tests).
  [[nodiscard]] long use_count() const {
    return impl_ ? impl_.use_count() : 0;
  }

  /// Releases this handle (the tensor becomes undefined).
  void reset() { impl_.reset(); }

  friend bool same_impl(const Tensor& a, const Tensor& b) {
    return a.impl_ == b.impl_;
  }
  friend bool same_storage(const Tensor& a, const Tensor& b);

 private:
  friend class TensorFactory;

  struct Impl {
    util::Label label;
    TensorShape shape;
    DType dtype = DType::fp16;
    std::shared_ptr<Storage> storage;
  };

  explicit Tensor(std::shared_ptr<Impl> impl) : impl_(std::move(impl)) {}

  std::shared_ptr<Impl> impl_;
};

/// Weak handle used by the tensor cache for data forwarding: while a store
/// is in flight the cache must not extend the tensor's lifetime, but must
/// be able to recover a strong reference if backward arrives early.
class WeakTensor {
 public:
  WeakTensor() = default;
  explicit WeakTensor(const Tensor& tensor);

  /// Recovers a strong handle if the tensor is still alive.
  [[nodiscard]] Tensor lock() const;
  [[nodiscard]] bool expired() const;

 private:
  // Rebuilding a Tensor from the weak storage reference requires the
  // original metadata; keep a copy (cheap: interned label + inline dims).
  util::Label label_;
  TensorShape shape_;
  DType dtype_ = DType::fp16;
  std::weak_ptr<Storage> storage_;
};

/// Creates tensors against a device allocator with proper tagging. Impl and
/// Storage blocks come from the factory's own SlabPool (allocate_shared
/// with a PoolAllocator), so steady-state tensor creation on the replay
/// path is heap-free; the pool's orphan contract keeps blocks valid for
/// tensors that outlive the factory.
class TensorFactory {
 public:
  explicit TensorFactory(hw::DeviceAllocator& allocator);

  /// Device tensor; memory is charged to \p tag immediately (like
  /// torch.empty on CUDA).
  Tensor cuda(util::Label label, TensorShape shape, DType dtype,
              hw::MemoryTag tag);

  /// Host tensor (inputs, small metadata).
  Tensor cpu(util::Label label, TensorShape shape, DType dtype);

  [[nodiscard]] hw::DeviceAllocator& allocator() { return allocator_; }

  /// The pool backing this factory's tensors (diagnostics/tests).
  [[nodiscard]] const util::SlabPool::Handle& pool() const { return pool_; }

 private:
  hw::DeviceAllocator& allocator_;
  util::SlabPool::Handle pool_;
};

}  // namespace ssdtrain::tensor
