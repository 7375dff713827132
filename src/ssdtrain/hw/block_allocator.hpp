#pragma once

/// \file block_allocator.hpp
/// Offset-based first-fit allocator with free-list coalescing. Used both for
/// the simulated GPU device memory (via DeviceAllocator, which adds tag
/// accounting) and for the CPU offloader's pinned host-memory pool. Working
/// at the address level (rather than just counting bytes) lets tests assert
/// non-overlap and lets us report external fragmentation, which matters when
/// judging whether an activation working set actually fits.

#include <cstdint>
#include <optional>
#include <vector>

#include "ssdtrain/util/units.hpp"

namespace ssdtrain::hw {

/// Identifies one live allocation. Offsets are stable for the allocation's
/// lifetime (no compaction, as on a real device). `cookie` indexes the
/// allocator's live-block table and `generation` stamps the slot's issue
/// (O(1) free + double-free detection without a search tree on the
/// per-activation hot path — the generation keeps a stale handle from
/// matching a recycled slot that re-carved the same range); treat both as
/// opaque and hand the whole Block back to free().
struct Block {
  std::int64_t offset = 0;
  util::Bytes size = 0;
  std::uint32_t cookie = 0;
  std::uint32_t generation = 0;
};

class BlockAllocator {
 public:
  /// \p capacity total bytes; \p alignment every block offset and size is
  /// rounded up to this (CUDA's allocator uses 512 B).
  explicit BlockAllocator(util::Bytes capacity, util::Bytes alignment = 512);

  /// Allocates \p bytes (rounded up to alignment). Returns std::nullopt when
  /// no free range fits (out of memory or too fragmented).
  std::optional<Block> allocate(util::Bytes bytes);

  /// Frees a block previously returned by allocate(). Coalesces with
  /// adjacent free ranges. Throws on double-free or unknown block.
  void free(const Block& block);

  [[nodiscard]] util::Bytes capacity() const { return capacity_; }
  [[nodiscard]] util::Bytes used() const { return used_; }
  [[nodiscard]] util::Bytes free_bytes() const { return capacity_ - used_; }

  /// Largest single free range; an allocation larger than this fails even
  /// though free_bytes() might suffice.
  [[nodiscard]] util::Bytes largest_free_range() const;

  /// 1 - largest_free_range / free_bytes; 0 when memory is unfragmented.
  [[nodiscard]] double external_fragmentation() const;

  [[nodiscard]] std::size_t live_blocks() const {
    return live_slots_.size() - free_slots_.size();
  }
  [[nodiscard]] std::size_t free_ranges() const { return free_.size(); }

 private:
  util::Bytes align_up(util::Bytes n) const;

  /// free_ holds the free ranges sorted by offset, never touching (free()
  /// coalesces). A flat vector, not a tree: allocate() shrinks or erases a
  /// range in place, free() merges in place and inserts only when neither
  /// neighbour touches. There are at most live blocks + 1 ranges, so
  /// allocate() keeps the capacity one above the live-slot table's and
  /// steady alloc/free traffic (one activation per operator, every step)
  /// never touches malloc — the step-replay zero-allocation contract.
  struct FreeRange {
    std::int64_t offset = 0;
    util::Bytes size = 0;
  };

  /// One live block's identity; slots recycle through free_slots_. A
  /// vector instead of a map: free() and double-free detection are O(1)
  /// array probes keyed by the Block's cookie + generation (the
  /// generation advances on every reissue, so a stale Block cannot match
  /// a recycled slot even if the same range was re-carved).
  struct LiveSlot {
    std::int64_t offset = -1;  ///< -1 = slot vacant
    util::Bytes size = 0;
    std::uint32_t generation = 0;
  };

  util::Bytes capacity_;
  util::Bytes alignment_;
  util::Bytes used_ = 0;
  std::vector<FreeRange> free_;
  std::vector<LiveSlot> live_slots_;
  std::vector<std::uint32_t> free_slots_;
};

}  // namespace ssdtrain::hw
