#pragma once

/// \file ftl.hpp
/// Page-mapped flash translation layer with greedy garbage collection and
/// wear levelling. The FTL is what turns host writes into media writes; the
/// ratio (write amplification factor, WAF) governs both sustained bandwidth
/// and endurance. The paper argues activation offloading is
/// endurance-friendly because tensors are written as large sequential
/// streams and freed wholesale (WAF ≈ 1); this simulator lets tests verify
/// that claim instead of assuming it, and lets us demonstrate the contrast
/// with the JESD-style random preconditioned workload (WAF ≫ 1).
///
/// A drive costs host time and memory only once it is written, and then in
/// proportion to the pages written to it. Its first write maps one run of
/// anonymous zero pages that holds all its tables (the block table, the
/// free list, the page owners and the logical map); their all-zero values
/// mean "free, never erased", "every block free, in index order", "invalid
/// page" and "unmapped". Until then the drive maps nothing and reads as
/// fresh. Opening a block finds the least-worn free block without scanning
/// the whole free list.

#include <cstdint>
#include <span>
#include <vector>

#include "ssdtrain/hw/ssd/nand.hpp"
#include "ssdtrain/util/units.hpp"
#include "ssdtrain/util/zero_pages.hpp"

namespace ssdtrain::hw {

/// Logical page address.
using Lpa = std::int64_t;

class Ftl {
 public:
  /// Maps nothing: the tables are made at the first write_page.
  explicit Ftl(NandGeometry geometry);
  Ftl(const Ftl&) = delete;  // the tables point into the drive's own mapping
  Ftl& operator=(const Ftl&) = delete;

  /// Programs one logical page (overwrite invalidates the old copy). May
  /// trigger garbage collection. Throws std::runtime_error if the device has
  /// worn out (GC finds no victim, or no room for a victim's valid pages);
  /// the page then reads as unmapped.
  void write_page(Lpa lpa);

  /// Writes a run of consecutive logical pages (the activation-offload
  /// pattern: each tensor is one large sequential extent).
  void write_extent(Lpa first, std::int64_t count);

  /// Invalidates a logical page without writing (TRIM). The tensor cache
  /// trims a tensor's extent after backward propagation consumes it.
  void trim_page(Lpa lpa);
  void trim_extent(Lpa first, std::int64_t count);

  [[nodiscard]] bool is_mapped(Lpa lpa) const;
  [[nodiscard]] std::int64_t logical_pages() const { return logical_pages_; }

  // -- statistics ------------------------------------------------------------
  [[nodiscard]] std::int64_t host_pages_written() const {
    return host_pages_written_;
  }
  [[nodiscard]] std::int64_t media_pages_written() const {
    return media_pages_written_;
  }
  /// media / host write ratio; 1.0 until GC has to relocate live pages.
  [[nodiscard]] double write_amplification() const;
  [[nodiscard]] std::int64_t gc_runs() const { return gc_runs_; }
  [[nodiscard]] std::int64_t blocks_erased() const { return blocks_erased_; }
  [[nodiscard]] std::int64_t retired_blocks() const { return retired_blocks_; }

  [[nodiscard]] int max_erase_count() const;
  [[nodiscard]] int min_erase_count() const;

  /// Fraction of total PE budget consumed (1.0 = worn out).
  [[nodiscard]] double wear_fraction() const;

  [[nodiscard]] const NandGeometry& geometry() const { return geometry_; }

 private:
  /// `free` is zero, so an untouched block table entry is a free block.
  enum class BlockState : std::uint8_t { free, open, closed, retired };

  /// All-zero: a free block that was never erased.
  struct BlockInfo {
    BlockState state = BlockState::free;
    int erase_count = 0;
    int write_pointer = 0;  ///< next page slot in an open block
    int valid_count = 0;
  };

  /// A physical page slot is block * pages_per_block + page.
  using Slot = std::int64_t;

  /// Maps the drive's tables, at its first write.
  void map_tables();

  /// Appends one page to the host open block (opening a fresh one as
  /// needed) and returns the slot it landed in. Media-write accounting
  /// happens here.
  Slot append_page(Lpa lpa);

  /// Appends a GC-relocated page. GC uses a dedicated open block so
  /// relocation never re-enters GC through the host append path.
  Slot gc_append_page(Lpa lpa);

  /// Programs the next page of open block \p block_index.
  Slot program_page(int block_index, Lpa lpa);

  /// Invalidates the physical copy that logical map entry \p mapped names,
  /// and unmaps the entry.
  void invalidate(Slot& mapped);

  /// Ensures a free block is available, running GC as required.
  void ensure_free_block();

  /// Picks the GC victim: most invalid pages, ties broken by lowest erase
  /// count (wear levelling).
  int pick_victim() const;

  void erase_block(int block_index);
  /// The first free block with the lowest erase count (wear levelling),
  /// swap-removed from the free list.
  int take_free_block();
  /// The block at position \p i of the free list.
  [[nodiscard]] int free_block_at(int i) const {
    const int entry = free_list_[static_cast<std::size_t>(i)];
    return entry == 0 ? i : entry - 1;
  }

  NandGeometry geometry_;
  std::int64_t logical_pages_;
  /// Holds every table below; maps nothing until the first write, and the
  /// tables are empty until then.
  util::ZeroPages tables_;
  std::span<BlockInfo> blocks_;
  /// Positions [0, free_count_) are the free list. Position i holds
  /// block + 1, or 0 for block i, so the initial list 0, 1, 2, ... is never
  /// written.
  std::span<int> free_list_;
  /// lpa + 1 per physical page slot; 0 if the slot holds no valid page.
  std::span<Lpa> page_owner_;
  /// slot + 1 per logical page; 0 if unmapped.
  std::span<Slot> map_;
  int free_count_;
  /// Free blocks per erase count, and the lowest count that has one
  /// (free_by_erases_.size() when none is free). Sized at the first write.
  std::vector<std::int64_t> free_by_erases_;
  std::size_t min_free_erases_ = 0;
  int open_block_ = -1;
  int gc_block_ = -1;
  std::int64_t host_pages_written_ = 0;
  std::int64_t media_pages_written_ = 0;
  std::int64_t gc_runs_ = 0;
  std::int64_t blocks_erased_ = 0;
  std::int64_t retired_blocks_ = 0;
  // GC must keep at least this many blocks free for relocation headroom.
  static constexpr int kGcFreeBlockThreshold = 2;
};

}  // namespace ssdtrain::hw
