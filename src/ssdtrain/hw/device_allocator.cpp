#include "ssdtrain/hw/device_allocator.hpp"

#include <algorithm>

#include "ssdtrain/util/check.hpp"
#include "ssdtrain/util/units.hpp"

namespace ssdtrain::hw {

DeviceAllocator::DeviceAllocator(util::Bytes capacity) : arena_(capacity) {}

std::size_t DeviceAllocator::tag_index(MemoryTag tag) const {
  const auto idx = static_cast<std::size_t>(tag);
  util::check(idx < kMemoryTagCount, "bad memory tag");
  return idx;
}

DeviceAllocation DeviceAllocator::allocate(util::Bytes bytes, MemoryTag tag) {
  auto block = arena_.allocate(bytes);
  if (!block) {
    throw OutOfDeviceMemory(
        "device OOM: requested " + util::format_bytes_binary(
                                       static_cast<double>(bytes)) +
        ", live " + util::format_bytes_binary(static_cast<double>(live_total())) +
        " of " + util::format_bytes_binary(static_cast<double>(capacity())) +
        " (largest free range " +
        util::format_bytes_binary(
            static_cast<double>(arena_.largest_free_range())) +
        ")");
  }
  DeviceAllocation allocation;
  allocation.id = next_id_++;
  allocation.bytes = block->size;
  allocation.tag = tag;
  allocation.block = *block;

  const std::size_t idx = tag_index(tag);
  live_[idx] += block->size;
  peak_[idx] = std::max(peak_[idx], live_[idx]);
  peak_total_ = std::max(peak_total_, live_total());
  if (hook_) hook_(block->size, tag);
  if (trace_observer_) {
    trace_observer_(allocation.id, block->size, tag, /*is_free=*/false);
  }
  return allocation;
}

void DeviceAllocator::free(const DeviceAllocation& allocation) {
  // The arena's live-block table rejects unknown/double frees.
  arena_.free(allocation.block);
  const std::size_t idx = tag_index(allocation.tag);
  util::check(live_[idx] >= allocation.block.size,
              "tag accounting underflow");
  live_[idx] -= allocation.block.size;
  if (hook_) hook_(-allocation.block.size, allocation.tag);
  if (trace_observer_) {
    trace_observer_(allocation.id, allocation.block.size, allocation.tag,
                    /*is_free=*/true);
  }
}

util::Bytes DeviceAllocator::capacity() const { return arena_.capacity(); }

util::Bytes DeviceAllocator::live(MemoryTag tag) const {
  return live_[tag_index(tag)];
}

util::Bytes DeviceAllocator::peak(MemoryTag tag) const {
  return peak_[tag_index(tag)];
}

util::Bytes DeviceAllocator::peak_total() const { return peak_total_; }

void DeviceAllocator::reset_peaks() {
  peak_ = live_;
  peak_total_ = live_total();
}

}  // namespace ssdtrain::hw
