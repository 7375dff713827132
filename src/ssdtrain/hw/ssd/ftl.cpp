#include "ssdtrain/hw/ssd/ftl.hpp"

#include <algorithm>
#include <stdexcept>

#include "ssdtrain/util/check.hpp"

namespace ssdtrain::hw {

namespace {

// Checked before anything is sized from the geometry.
NandGeometry validated(NandGeometry geometry, int gc_free_block_threshold) {
  util::expects(geometry.physical_blocks > gc_free_block_threshold + 1,
                "too few blocks");
  util::expects(geometry.pages_per_block > 0, "bad pages_per_block");
  return geometry;
}

}  // namespace

Ftl::Ftl(NandGeometry geometry)
    : geometry_(validated(geometry, kGcFreeBlockThreshold)),
      logical_pages_(geometry_.logical_pages()),
      free_count_(geometry_.physical_blocks) {}

void Ftl::map_tables() {
  using util::ZeroPages;
  const auto blocks = static_cast<std::size_t>(geometry_.physical_blocks);
  const auto slots =
      blocks * static_cast<std::size_t>(geometry_.pages_per_block);
  const auto lpas = static_cast<std::size_t>(logical_pages_);
  // Every block starts free with no erases.
  free_by_erases_.assign(1, geometry_.physical_blocks);
  tables_ = ZeroPages(ZeroPages::footprint<BlockInfo>(blocks) +
                      ZeroPages::footprint<int>(blocks) +
                      ZeroPages::footprint<Lpa>(slots) +
                      ZeroPages::footprint<Slot>(lpas));
  blocks_ = tables_.take<BlockInfo>(blocks);
  free_list_ = tables_.take<int>(blocks);
  page_owner_ = tables_.take<Lpa>(slots);
  map_ = tables_.take<Slot>(lpas);
}

bool Ftl::is_mapped(Lpa lpa) const {
  util::expects(lpa >= 0 && lpa < logical_pages_, "LPA out of range");
  return !map_.empty() && map_[static_cast<std::size_t>(lpa)] != 0;
}

void Ftl::write_page(Lpa lpa) {
  util::expects(lpa >= 0 && lpa < logical_pages_, "LPA out of range");
  if (map_.empty()) map_tables();
  Slot& mapped = map_[static_cast<std::size_t>(lpa)];
  // Overwrite: invalidate the previous physical copy. The page reads as
  // unmapped until its new copy lands.
  if (mapped != 0) invalidate(mapped);
  ++host_pages_written_;
  mapped = append_page(lpa) + 1;
}

void Ftl::write_extent(Lpa first, std::int64_t count) {
  util::expects(count >= 0, "negative extent");
  for (std::int64_t i = 0; i < count; ++i) write_page(first + i);
}

void Ftl::trim_page(Lpa lpa) {
  util::expects(lpa >= 0 && lpa < logical_pages_, "LPA out of range");
  if (map_.empty()) return;  // never written
  Slot& mapped = map_[static_cast<std::size_t>(lpa)];
  if (mapped != 0) invalidate(mapped);
}

void Ftl::trim_extent(Lpa first, std::int64_t count) {
  util::expects(count >= 0, "negative extent");
  for (std::int64_t i = 0; i < count; ++i) trim_page(first + i);
}

void Ftl::invalidate(Slot& mapped) {
  const Slot slot = mapped - 1;
  page_owner_[static_cast<std::size_t>(slot)] = 0;
  --blocks_[static_cast<std::size_t>(slot / geometry_.pages_per_block)]
        .valid_count;
  mapped = 0;
}

Ftl::Slot Ftl::append_page(Lpa lpa) {
  if (open_block_ < 0 ||
      blocks_[static_cast<std::size_t>(open_block_)].write_pointer >=
          geometry_.pages_per_block) {
    if (open_block_ >= 0) {
      blocks_[static_cast<std::size_t>(open_block_)].state =
          BlockState::closed;
    }
    ensure_free_block();
    open_block_ = take_free_block();
    auto& fresh = blocks_[static_cast<std::size_t>(open_block_)];
    fresh.state = BlockState::open;
    fresh.write_pointer = 0;
  }
  return program_page(open_block_, lpa);
}

Ftl::Slot Ftl::gc_append_page(Lpa lpa) {
  if (gc_block_ < 0 ||
      blocks_[static_cast<std::size_t>(gc_block_)].write_pointer >=
          geometry_.pages_per_block) {
    if (gc_block_ >= 0) {
      blocks_[static_cast<std::size_t>(gc_block_)].state = BlockState::closed;
    }
    // ensure_free_block checked, before erasing the victim, that this
    // block and the free blocks (the victim among them unless it retired)
    // hold all its valid pages, so a free block exists here.
    gc_block_ = take_free_block();
    auto& fresh = blocks_[static_cast<std::size_t>(gc_block_)];
    fresh.state = BlockState::open;
    fresh.write_pointer = 0;
  }
  return program_page(gc_block_, lpa);
}

Ftl::Slot Ftl::program_page(int block_index, Lpa lpa) {
  auto& block = blocks_[static_cast<std::size_t>(block_index)];
  const Slot slot = Slot{block_index} * geometry_.pages_per_block +
                    block.write_pointer++;
  page_owner_[static_cast<std::size_t>(slot)] = lpa + 1;
  ++block.valid_count;
  ++media_pages_written_;
  return slot;
}

void Ftl::ensure_free_block() {
  while (free_count_ <= kGcFreeBlockThreshold) {
    const int victim = pick_victim();
    if (victim < 0) {
      throw std::runtime_error(
          "FTL: device worn out (no GC victim available)");
    }
    auto& vb = blocks_[static_cast<std::size_t>(victim)];
    // A victim at its PE limit retires instead of rejoining the free list.
    // Check that its valid pages fit before erasing it: survivors left half
    // relocated would stay mapped to erased pages.
    const bool retires = vb.erase_count + 1 >= geometry_.pe_cycle_limit;
    const std::int64_t gc_room =
        gc_block_ < 0
            ? 0
            : geometry_.pages_per_block -
                  blocks_[static_cast<std::size_t>(gc_block_)].write_pointer;
    const std::int64_t free_after = free_count_ + (retires ? 0 : 1);
    if (vb.valid_count > gc_room + free_after * geometry_.pages_per_block) {
      throw std::runtime_error(
          "FTL: device worn out (no room to relocate a GC victim)");
    }
    ++gc_runs_;
    // Relocate still-valid pages. This is where write amplification comes
    // from: each relocated page is a media write with no host write.
    std::vector<Lpa> survivors;
    survivors.reserve(static_cast<std::size_t>(vb.valid_count));
    const Slot first = Slot{victim} * geometry_.pages_per_block;
    for (int p = 0; p < geometry_.pages_per_block; ++p) {
      const Lpa owner = page_owner_[static_cast<std::size_t>(first + p)];
      if (owner != 0) survivors.push_back(owner - 1);
    }
    erase_block(victim);
    for (Lpa lpa : survivors) {
      map_[static_cast<std::size_t>(lpa)] = gc_append_page(lpa) + 1;
    }
  }
}

int Ftl::pick_victim() const {
  int best = -1;
  int best_invalid = -1;
  int best_erases = 0;
  for (std::size_t i = 0; i < blocks_.size(); ++i) {
    const auto& block = blocks_[i];
    if (block.state != BlockState::closed) continue;
    if (static_cast<int>(i) == open_block_) continue;
    const int invalid = geometry_.pages_per_block - block.valid_count;
    if (invalid == 0) continue;  // nothing to gain
    if (invalid > best_invalid ||
        (invalid == best_invalid && block.erase_count < best_erases)) {
      best = static_cast<int>(i);
      best_invalid = invalid;
      best_erases = block.erase_count;
    }
  }
  return best;
}

void Ftl::erase_block(int block_index) {
  auto& block = blocks_[static_cast<std::size_t>(block_index)];
  ++block.erase_count;
  ++blocks_erased_;
  const auto first = static_cast<std::ptrdiff_t>(block_index) *
                     geometry_.pages_per_block;
  std::fill_n(page_owner_.begin() + first, geometry_.pages_per_block, 0);
  block.valid_count = 0;
  block.write_pointer = 0;
  if (block.erase_count >= geometry_.pe_cycle_limit) {
    block.state = BlockState::retired;
    ++retired_blocks_;
    return;
  }
  block.state = BlockState::free;
  free_list_[static_cast<std::size_t>(free_count_++)] = block_index + 1;
  const auto erases = static_cast<std::size_t>(block.erase_count);
  if (erases >= free_by_erases_.size()) free_by_erases_.resize(erases + 1);
  ++free_by_erases_[erases];
  min_free_erases_ = std::min(min_free_erases_, erases);
}

int Ftl::take_free_block() {
  util::check(free_count_ > 0, "no free block");
  // Wear levelling: open the least-worn free block. The first one in the
  // list is the block a min_element scan over erase counts would pick.
  const int least = static_cast<int>(min_free_erases_);
  int at = 0;
  while (at < free_count_ &&
         blocks_[static_cast<std::size_t>(free_block_at(at))].erase_count !=
             least) {
    ++at;
  }
  util::check(at < free_count_, "free-block counts out of step");
  const int chosen = free_block_at(at);
  free_list_[static_cast<std::size_t>(at)] = free_block_at(--free_count_) + 1;
  --free_by_erases_[min_free_erases_];
  while (min_free_erases_ < free_by_erases_.size() &&
         free_by_erases_[min_free_erases_] == 0) {
    ++min_free_erases_;
  }
  return chosen;
}

double Ftl::write_amplification() const {
  if (host_pages_written_ == 0) return 1.0;
  return static_cast<double>(media_pages_written_) /
         static_cast<double>(host_pages_written_);
}

int Ftl::max_erase_count() const {
  int best = 0;
  for (const auto& block : blocks_) best = std::max(best, block.erase_count);
  return best;
}

int Ftl::min_erase_count() const {
  if (blocks_.empty()) return 0;  // never written
  int best = blocks_[0].erase_count;
  for (const auto& block : blocks_) best = std::min(best, block.erase_count);
  return best;
}

double Ftl::wear_fraction() const {
  const double budget = static_cast<double>(geometry_.pe_cycle_limit) *
                        static_cast<double>(geometry_.physical_blocks);
  if (budget <= 0.0) return 1.0;
  double consumed = 0.0;
  for (const auto& block : blocks_) consumed += block.erase_count;
  return consumed / budget;
}

}  // namespace ssdtrain::hw
