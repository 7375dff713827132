// Tests for the block allocator and the tagged device allocator: overlap
// freedom, coalescing, peak tracking, fragmentation, and OOM behaviour.

#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <map>
#include <optional>
#include <set>
#include <vector>

#include "ssdtrain/hw/block_allocator.hpp"
#include "ssdtrain/hw/device_allocator.hpp"
#include "ssdtrain/hw/host_memory.hpp"
#include "ssdtrain/util/check.hpp"
#include "ssdtrain/util/rng.hpp"
#include "ssdtrain/util/units.hpp"

namespace hw = ssdtrain::hw;
namespace u = ssdtrain::util;

TEST(BlockAllocator, AllocatesAlignedNonOverlapping) {
  hw::BlockAllocator a(u::kib(64), 512);
  auto b1 = a.allocate(100);
  auto b2 = a.allocate(1000);
  ASSERT_TRUE(b1 && b2);
  EXPECT_EQ(b1->size % 512, 0);
  EXPECT_EQ(b2->size % 512, 0);
  EXPECT_TRUE(b1->offset + b1->size <= b2->offset ||
              b2->offset + b2->size <= b1->offset);
}

TEST(BlockAllocator, ExhaustionReturnsNullopt) {
  hw::BlockAllocator a(u::kib(1), 512);
  EXPECT_TRUE(a.allocate(512));
  EXPECT_TRUE(a.allocate(512));
  EXPECT_FALSE(a.allocate(1));
}

TEST(BlockAllocator, FreeCoalescesNeighbors) {
  hw::BlockAllocator a(u::kib(4), 512);
  auto b1 = a.allocate(1024);
  auto b2 = a.allocate(1024);
  auto b3 = a.allocate(1024);
  ASSERT_TRUE(b1 && b2 && b3);
  a.free(*b1);
  a.free(*b3);
  // b1 leaves a hole at the front; b3 coalesces with the free tail.
  EXPECT_EQ(a.free_ranges(), 2u);
  a.free(*b2);  // bridges everything
  EXPECT_EQ(a.free_ranges(), 1u);
  EXPECT_EQ(a.largest_free_range(), u::kib(4));
  EXPECT_EQ(a.used(), 0);
}

TEST(BlockAllocator, DoubleFreeThrows) {
  hw::BlockAllocator a(u::kib(4), 512);
  auto b = a.allocate(512);
  ASSERT_TRUE(b);
  a.free(*b);
  EXPECT_THROW(a.free(*b), u::ContractViolation);
}

TEST(BlockAllocator, StaleFreeAfterSameRangeReallocationThrows) {
  // The cookie-slot fast path must not be fooled by ABA: freeing a block,
  // re-carving the identical range into the recycled slot, then freeing
  // the *stale* handle again has to trip the generation check instead of
  // silently releasing the live allocation.
  hw::BlockAllocator a(u::kib(4), 512);
  auto stale = a.allocate(512);
  ASSERT_TRUE(stale);
  a.free(*stale);
  auto fresh = a.allocate(512);
  ASSERT_TRUE(fresh);
  EXPECT_EQ(fresh->offset, stale->offset);
  EXPECT_EQ(fresh->cookie, stale->cookie);
  EXPECT_THROW(a.free(*stale), u::ContractViolation);
  a.free(*fresh);
  EXPECT_EQ(a.live_blocks(), 0u);
}

TEST(BlockAllocator, FragmentationBlocksLargeAllocation) {
  hw::BlockAllocator a(u::kib(4), 512);
  std::vector<hw::Block> blocks;
  for (int i = 0; i < 8; ++i) blocks.push_back(*a.allocate(512));
  // Free every other block: 1 KiB total free but max range 512.
  for (int i = 0; i < 8; i += 2) a.free(blocks[static_cast<std::size_t>(i)]);
  EXPECT_EQ(a.free_bytes(), u::kib(2));
  EXPECT_EQ(a.largest_free_range(), 512);
  EXPECT_FALSE(a.allocate(1024));
  EXPECT_GT(a.external_fragmentation(), 0.5);
}

namespace {

// The arena's placement rule written the obvious way: first fit over a
// std::map of free ranges (offset -> size), coalescing on free.
class FirstFitModel {
 public:
  FirstFitModel(u::Bytes capacity, u::Bytes alignment)
      : alignment_(alignment), free_{{0, capacity}} {}

  std::optional<std::int64_t> allocate(u::Bytes bytes) {
    const u::Bytes need = (bytes + alignment_ - 1) / alignment_ * alignment_;
    for (auto it = free_.begin(); it != free_.end(); ++it) {
      if (it->second < need) continue;
      const auto [offset, size] = *it;
      free_.erase(it);
      if (size > need) free_[offset + need] = size - need;
      used_ += need;
      return offset;
    }
    return std::nullopt;
  }

  void free(std::int64_t offset, u::Bytes size) {
    used_ -= size;
    auto next = free_.lower_bound(offset);
    if (next != free_.end() && offset + size == next->first) {
      size += next->second;
      next = free_.erase(next);
    }
    if (next != free_.begin() &&
        std::prev(next)->first + std::prev(next)->second == offset) {
      std::prev(next)->second += size;
    } else {
      free_[offset] = size;
    }
  }

  std::size_t ranges() const { return free_.size(); }
  u::Bytes used() const { return used_; }
  u::Bytes largest() const {
    u::Bytes largest = 0;
    for (const auto& range : free_) largest = std::max(largest, range.second);
    return largest;
  }

 private:
  u::Bytes alignment_;
  std::map<std::int64_t, u::Bytes> free_;
  u::Bytes used_ = 0;
};

}  // namespace

// Lockstep against FirstFitModel: every allocation lands at the model's
// offset (or both fail), and the free-range count, largest free range and
// used bytes agree after every operation — the arena's free list may
// change how it stores ranges, never where a block goes.
TEST(BlockAllocator, RandomStressPreservesInvariants) {
  u::Xoshiro256 rng(2024);
  hw::BlockAllocator a(u::mib(64), 512);
  FirstFitModel model(u::mib(64), 512);
  std::vector<hw::Block> live;

  const auto matches_model = [&]() -> ::testing::AssertionResult {
    if (a.free_ranges() != model.ranges() ||
        a.largest_free_range() != model.largest() ||
        a.used() != model.used()) {
      return ::testing::AssertionFailure()
             << "ranges " << a.free_ranges() << " vs " << model.ranges()
             << ", largest " << a.largest_free_range() << " vs "
             << model.largest() << ", used " << a.used() << " vs "
             << model.used();
    }
    return ::testing::AssertionSuccess();
  };
  const auto allocate = [&](u::Bytes bytes) -> ::testing::AssertionResult {
    const auto block = a.allocate(bytes);
    const auto expected = model.allocate(bytes);
    if (block.has_value() != expected.has_value() ||
        (block && block->offset != *expected)) {
      return ::testing::AssertionFailure()
             << "allocate(" << bytes << ") at "
             << (block ? block->offset : -1) << ", model at "
             << (expected ? *expected : -1);
    }
    if (block) live.push_back(*block);
    return matches_model();
  };
  const auto release = [&](std::size_t index) -> ::testing::AssertionResult {
    const hw::Block block = live[index];
    live[index] = live.back();
    live.pop_back();
    a.free(block);
    model.free(block.offset, block.size);
    return matches_model();
  };
  const auto random_ops = [&](int steps, std::uint64_t max_bytes) {
    for (int step = 0; step < steps; ++step) {
      auto result =
          live.empty() || rng.uniform() < 0.55
              ? allocate(static_cast<u::Bytes>(rng.uniform_int(max_bytes) + 1))
              : release(rng.uniform_int(live.size()));
      if (!result) return result << " (step " << step << ")";
    }
    return ::testing::AssertionSuccess();
  };

  ASSERT_TRUE(random_ops(5000, 65536));

  // A packed run with every other block freed: hundreds of free ranges,
  // so first fit scans deep and frees merge on both sides.
  while (!live.empty()) ASSERT_TRUE(release(rng.uniform_int(live.size())));
  ASSERT_EQ(a.free_ranges(), 1u);
  for (int i = 0; i < 600; ++i) {
    ASSERT_TRUE(allocate(static_cast<u::Bytes>(rng.uniform_int(8192) + 1)));
  }
  std::vector<hw::Block> run = live;
  live.clear();
  for (std::size_t i = 0; i < run.size(); ++i) {
    if (i % 2 == 0) {
      a.free(run[i]);
      model.free(run[i].offset, run[i].size);
    } else {
      live.push_back(run[i]);
    }
  }
  ASSERT_TRUE(matches_model());
  EXPECT_EQ(a.free_ranges(), 301u);  // 300 holes + the tail
  // Exact fit: the first hole is consumed whole and its range erased.
  ASSERT_TRUE(allocate(run[0].size));
  EXPECT_EQ(live.back().offset, run[0].offset);
  EXPECT_EQ(a.free_ranges(), 300u);
  ASSERT_TRUE(random_ops(3000, 16384));

  // No two live blocks overlap and used() is the sum of live sizes.
  std::set<std::pair<std::int64_t, std::int64_t>> ranges;
  u::Bytes total = 0;
  for (const auto& b : live) {
    ranges.insert({b.offset, b.offset + b.size});
    total += b.size;
  }
  std::int64_t prev_end = -1;
  for (const auto& [begin, end] : ranges) {
    EXPECT_GE(begin, prev_end);
    prev_end = end;
  }
  EXPECT_EQ(a.used(), total);
  EXPECT_EQ(a.live_blocks(), live.size());
}

TEST(DeviceAllocator, TracksPerTagPeaks) {
  hw::DeviceAllocator d(u::gib(1));
  auto w = d.allocate(u::mib(100), hw::MemoryTag::weights);
  auto a1 = d.allocate(u::mib(200), hw::MemoryTag::activation);
  auto a2 = d.allocate(u::mib(300), hw::MemoryTag::activation);
  EXPECT_EQ(d.live(hw::MemoryTag::activation), a1.bytes + a2.bytes);
  d.free(a1);
  d.free(a2);
  EXPECT_EQ(d.live(hw::MemoryTag::activation), 0);
  // Peak remembers the high-water mark, not the current value.
  EXPECT_EQ(d.peak(hw::MemoryTag::activation), a1.bytes + a2.bytes);
  EXPECT_EQ(d.peak(hw::MemoryTag::weights), w.bytes);
  EXPECT_EQ(d.peak_total(), w.bytes + a1.bytes + a2.bytes);
  d.free(w);
}

TEST(DeviceAllocator, ResetPeaksDropsToLive) {
  hw::DeviceAllocator d(u::gib(1));
  auto a = d.allocate(u::mib(500), hw::MemoryTag::activation);
  d.free(a);
  auto b = d.allocate(u::mib(10), hw::MemoryTag::activation);
  d.reset_peaks();
  EXPECT_EQ(d.peak(hw::MemoryTag::activation), b.bytes);
  d.free(b);
}

TEST(DeviceAllocator, ThrowsOnOom) {
  hw::DeviceAllocator d(u::mib(64));
  auto a = d.allocate(u::mib(60), hw::MemoryTag::activation);
  EXPECT_THROW(d.allocate(u::mib(10), hw::MemoryTag::activation),
               hw::OutOfDeviceMemory);
  d.free(a);
  EXPECT_NO_THROW(d.allocate(u::mib(10), hw::MemoryTag::activation));
}

TEST(DeviceAllocator, AllocationHookSeesDeltas) {
  hw::DeviceAllocator d(u::gib(1));
  u::Bytes registered = 0;
  d.set_allocation_hook([&](u::Bytes delta, hw::MemoryTag tag) {
    if (tag == hw::MemoryTag::activation) registered += delta;
  });
  auto a = d.allocate(u::mib(64), hw::MemoryTag::activation);
  EXPECT_EQ(registered, a.bytes);
  d.free(a);
  EXPECT_EQ(registered, 0);
}

TEST(PinnedPool, AllocateFreeAndFailureCount) {
  hw::PinnedMemoryPool pool(u::mib(10));
  auto a = pool.allocate(u::mib(8));
  ASSERT_TRUE(a);
  EXPECT_FALSE(pool.allocate(u::mib(4)));
  EXPECT_EQ(pool.failed_allocations(), 1u);
  pool.free(*a);
  EXPECT_EQ(pool.used(), 0);
  EXPECT_GE(pool.peak_used(), u::mib(8));
}

TEST(PinnedPool, ResizeRequiresEmptyPool) {
  hw::PinnedMemoryPool pool(u::mib(10));
  auto a = pool.allocate(u::mib(1));
  ASSERT_TRUE(a);
  EXPECT_THROW(pool.resize(u::mib(20)), u::ContractViolation);
  pool.free(*a);
  pool.resize(u::mib(20));
  EXPECT_EQ(pool.pool_size(), u::mib(20));
}
