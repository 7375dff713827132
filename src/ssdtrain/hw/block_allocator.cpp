#include "ssdtrain/hw/block_allocator.hpp"

#include <algorithm>

#include "ssdtrain/util/check.hpp"

namespace ssdtrain::hw {

BlockAllocator::BlockAllocator(util::Bytes capacity, util::Bytes alignment)
    : capacity_(capacity), alignment_(alignment), free_{{0, capacity}} {
  util::expects(capacity > 0, "capacity must be positive");
  util::expects(alignment > 0, "alignment must be positive");
}

util::Bytes BlockAllocator::align_up(util::Bytes n) const {
  return (n + alignment_ - 1) / alignment_ * alignment_;
}

std::optional<Block> BlockAllocator::allocate(util::Bytes bytes) {
  util::expects(bytes > 0, "allocation must be positive");
  const util::Bytes need = align_up(bytes);
  // First fit in address order: keeps long-lived allocations packed low,
  // mirroring the behaviour of CUDA's caching allocator well enough for
  // fragmentation statistics.
  const auto fit = std::find_if(
      free_.begin(), free_.end(),
      [need](const FreeRange& r) { return r.size >= need; });
  if (fit == free_.end()) return std::nullopt;
  const std::int64_t offset = fit->offset;
  if (fit->size == need) {
    free_.erase(fit);
  } else {
    fit->offset += need;
    fit->size -= need;
  }
  std::uint32_t slot;
  if (!free_slots_.empty()) {
    slot = free_slots_.back();
    free_slots_.pop_back();
  } else {
    slot = static_cast<std::uint32_t>(live_slots_.size());
    live_slots_.emplace_back();
    free_.reserve(live_slots_.capacity() + 1);  // see free_
  }
  const std::uint32_t generation = live_slots_[slot].generation + 1;
  live_slots_[slot] = LiveSlot{offset, need, generation};
  used_ += need;
  return Block{offset, need, slot, generation};
}

void BlockAllocator::free(const Block& block) {
  util::expects(block.cookie < live_slots_.size() &&
                    live_slots_[block.cookie].offset == block.offset &&
                    live_slots_[block.cookie].size == block.size &&
                    live_slots_[block.cookie].generation == block.generation,
                "free of unknown or already-freed block");
  live_slots_[block.cookie].offset = -1;
  free_slots_.push_back(block.cookie);
  used_ -= block.size;

  // Coalesce with the neighbouring free ranges in place.
  const auto next = std::lower_bound(
      free_.begin(), free_.end(), block.offset,
      [](const FreeRange& r, std::int64_t at) { return r.offset < at; });
  const bool joins_next =
      next != free_.end() && block.offset + block.size == next->offset;
  const auto prev = next == free_.begin() ? free_.end() : std::prev(next);
  if (prev != free_.end() && prev->offset + prev->size == block.offset) {
    prev->size += block.size;
    if (joins_next) {
      prev->size += next->size;
      free_.erase(next);
    }
  } else if (joins_next) {
    next->offset = block.offset;
    next->size += block.size;
  } else {
    free_.insert(next, FreeRange{block.offset, block.size});
  }
}

util::Bytes BlockAllocator::largest_free_range() const {
  util::Bytes largest = 0;
  for (const FreeRange& r : free_) largest = std::max(largest, r.size);
  return largest;
}

double BlockAllocator::external_fragmentation() const {
  const util::Bytes total_free = free_bytes();
  if (total_free == 0) return 0.0;
  return 1.0 - static_cast<double>(largest_free_range()) /
                   static_cast<double>(total_free);
}

}  // namespace ssdtrain::hw
