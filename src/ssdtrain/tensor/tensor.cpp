#include "ssdtrain/tensor/tensor.hpp"

#include "ssdtrain/util/check.hpp"

namespace ssdtrain::tensor {

Storage::Storage(hw::DeviceAllocator& allocator,
                 hw::DeviceAllocation allocation)
    : allocator_(&allocator),
      allocation_(allocation),
      bytes_(allocation.bytes),
      device_(Device::cuda) {}

Storage::Storage(util::Bytes bytes) : bytes_(bytes), device_(Device::cpu) {
  util::expects(bytes >= 0, "negative storage size");
}

Storage::~Storage() {
  if (allocator_ != nullptr) {
    allocator_->free(allocation_);
  }
}

Tensor::Tensor(util::Label label, TensorShape shape, DType dtype,
               std::shared_ptr<Storage> storage)
    : impl_(std::make_shared<Impl>(Impl{label, shape, dtype,
                                        std::move(storage)})) {
  util::expects(impl_->storage != nullptr, "tensor needs storage");
}

const util::Label& Tensor::label() const {
  util::expects(defined(), "undefined tensor");
  return impl_->label;
}

const TensorShape& Tensor::shape() const {
  util::expects(defined(), "undefined tensor");
  return impl_->shape;
}

DType Tensor::dtype() const {
  util::expects(defined(), "undefined tensor");
  return impl_->dtype;
}

Device Tensor::device() const {
  util::expects(defined(), "undefined tensor");
  return impl_->storage->device();
}

std::int64_t Tensor::numel() const { return shape().numel(); }

util::Bytes Tensor::bytes() const {
  return numel() * element_size(dtype());
}

const std::shared_ptr<Storage>& Tensor::storage() const {
  util::expects(defined(), "undefined tensor");
  return impl_->storage;
}

Tensor Tensor::transpose_view() const {
  util::expects(defined(), "undefined tensor");
  return Tensor(util::Label::suffixed(impl_->label, ".T"),
                impl_->shape.transposed(), impl_->dtype, impl_->storage);
}

bool same_storage(const Tensor& a, const Tensor& b) {
  return a.defined() && b.defined() && a.impl_->storage == b.impl_->storage;
}

WeakTensor::WeakTensor(const Tensor& tensor) {
  util::expects(tensor.defined(), "cannot weak-reference undefined tensor");
  label_ = tensor.label();
  shape_ = tensor.shape();
  dtype_ = tensor.dtype();
  storage_ = tensor.storage();
}

Tensor WeakTensor::lock() const {
  auto storage = storage_.lock();
  if (!storage) return {};
  return Tensor(label_, shape_, dtype_, std::move(storage));
}

bool WeakTensor::expired() const { return storage_.expired(); }

TensorFactory::TensorFactory(hw::DeviceAllocator& allocator)
    : allocator_(allocator), pool_(util::SlabPool::create()) {}

Tensor TensorFactory::cuda(util::Label label, TensorShape shape, DType dtype,
                           hw::MemoryTag tag) {
  const util::Bytes bytes = shape.numel() * element_size(dtype);
  util::expects(bytes > 0, "empty device tensor");
  auto allocation = allocator_.allocate(bytes, tag);
  auto storage = std::allocate_shared<Storage>(
      util::PoolAllocator<Storage>(pool_), allocator_, allocation);
  return Tensor(std::allocate_shared<Tensor::Impl>(
      util::PoolAllocator<Tensor::Impl>(pool_),
      Tensor::Impl{label, shape, dtype, std::move(storage)}));
}

Tensor TensorFactory::cpu(util::Label label, TensorShape shape, DType dtype) {
  const util::Bytes bytes = shape.numel() * element_size(dtype);
  auto storage = std::allocate_shared<Storage>(
      util::PoolAllocator<Storage>(pool_), bytes);
  return Tensor(std::allocate_shared<Tensor::Impl>(
      util::PoolAllocator<Tensor::Impl>(pool_),
      Tensor::Impl{label, shape, dtype, std::move(storage)}));
}

}  // namespace ssdtrain::tensor
