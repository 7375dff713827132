#include "ssdtrain/hw/ssd/ftl.hpp"

#include <algorithm>
#include <numeric>
#include <stdexcept>

#include "ssdtrain/util/check.hpp"

namespace ssdtrain::hw {

namespace {

// Checked before the tables are mapped: their sizes come from the geometry.
NandGeometry validated(NandGeometry geometry, int gc_free_block_threshold) {
  util::expects(geometry.physical_blocks > gc_free_block_threshold + 1,
                "too few blocks");
  util::expects(geometry.pages_per_block > 0, "bad pages_per_block");
  return geometry;
}

}  // namespace

Ftl::Ftl(NandGeometry geometry)
    : geometry_(validated(geometry, kGcFreeBlockThreshold)),
      blocks_(static_cast<std::size_t>(geometry_.physical_blocks)),
      page_owner_(static_cast<std::size_t>(geometry_.physical_blocks) *
                  static_cast<std::size_t>(geometry_.pages_per_block)),
      map_(static_cast<std::size_t>(geometry_.logical_pages())),
      free_blocks_(blocks_.size()),
      free_by_erases_{static_cast<std::int64_t>(blocks_.size())} {
  std::iota(free_blocks_.begin(), free_blocks_.end(), 0);
}

std::int64_t Ftl::logical_pages() const {
  return static_cast<std::int64_t>(map_.size());
}

bool Ftl::is_mapped(Lpa lpa) const {
  util::expects(lpa >= 0 && lpa < logical_pages(), "LPA out of range");
  return map_[static_cast<std::size_t>(lpa)] != 0;
}

void Ftl::write_page(Lpa lpa) {
  util::expects(lpa >= 0 && lpa < logical_pages(), "LPA out of range");
  Slot& mapped = map_[static_cast<std::size_t>(lpa)];
  // Overwrite: invalidate the previous physical copy.
  if (mapped != 0) invalidate(mapped);
  ++host_pages_written_;
  mapped = append_page(lpa) + 1;
}

void Ftl::write_extent(Lpa first, std::int64_t count) {
  util::expects(count >= 0, "negative extent");
  for (std::int64_t i = 0; i < count; ++i) write_page(first + i);
}

void Ftl::trim_page(Lpa lpa) {
  util::expects(lpa >= 0 && lpa < logical_pages(), "LPA out of range");
  Slot& mapped = map_[static_cast<std::size_t>(lpa)];
  if (mapped == 0) return;  // already unmapped
  invalidate(mapped);
  mapped = 0;
}

void Ftl::trim_extent(Lpa first, std::int64_t count) {
  util::expects(count >= 0, "negative extent");
  for (std::int64_t i = 0; i < count; ++i) trim_page(first + i);
}

void Ftl::invalidate(Slot mapped) {
  const Slot slot = mapped - 1;
  page_owner_[static_cast<std::size_t>(slot)] = 0;
  --blocks_[static_cast<std::size_t>(slot / geometry_.pages_per_block)]
        .valid_count;
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
    // GC erases its victim before relocating, so a free block always
    // exists here (the victim itself in the worst case).
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
  while (static_cast<int>(free_blocks_.size()) <= kGcFreeBlockThreshold) {
    const int victim = pick_victim();
    if (victim < 0) {
      throw std::runtime_error(
          "FTL: device worn out (no GC victim available)");
    }
    ++gc_runs_;
    auto& vb = blocks_[static_cast<std::size_t>(victim)];
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
  free_blocks_.push_back(block_index);
  const auto erases = static_cast<std::size_t>(block.erase_count);
  if (erases >= free_by_erases_.size()) free_by_erases_.resize(erases + 1);
  ++free_by_erases_[erases];
  min_free_erases_ = std::min(min_free_erases_, erases);
}

int Ftl::take_free_block() {
  util::check(!free_blocks_.empty(), "no free block");
  // Wear levelling: open the least-worn free block. The first one in the
  // list is the block a min_element scan over erase counts would pick.
  const int least = static_cast<int>(min_free_erases_);
  auto it = std::find_if(
      free_blocks_.begin(), free_blocks_.end(), [this, least](int b) {
        return blocks_[static_cast<std::size_t>(b)].erase_count == least;
      });
  util::check(it != free_blocks_.end(), "free-block counts out of step");
  const int chosen = *it;
  *it = free_blocks_.back();
  free_blocks_.pop_back();
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
  int best = blocks_[0].erase_count;
  for (const auto& block : blocks_) best = std::min(best, block.erase_count);
  return best;
}

double Ftl::wear_fraction() const {
  const double budget = static_cast<double>(geometry_.pe_cycle_limit) *
                        static_cast<double>(blocks_.size());
  if (budget <= 0.0) return 1.0;
  double consumed = 0.0;
  for (const auto& block : blocks_) consumed += block.erase_count;
  return consumed / budget;
}

}  // namespace ssdtrain::hw
