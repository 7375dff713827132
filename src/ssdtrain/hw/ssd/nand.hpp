#pragma once

/// \file nand.hpp
/// NAND flash geometry and cell-type parameters for the FTL simulator.
/// The paper's endurance argument (§II-C) rests on flash-level facts: pages
/// program individually but erase happens per block, multi-level cells trade
/// capacity for PE cycles, and over-provisioning feeds wear levelling. These
/// types make those quantities explicit.

#include <cstdint>

#include "ssdtrain/util/units.hpp"

namespace ssdtrain::hw {

/// Bits stored per cell; more bits → cheaper capacity, fewer PE cycles.
enum class CellType : std::uint8_t { slc, mlc, tlc, qlc };

/// Typical program/erase cycle budgets per cell type (order-of-magnitude
/// values from the flash literature; retention relaxation multiplies these,
/// see endurance.hpp).
int default_pe_cycle_limit(CellType type);

struct NandGeometry {
  util::Bytes page_size = util::kib(16);
  int pages_per_block = 1024;  ///< 16 MiB erase blocks at the default page size
  int physical_blocks = 0;
  /// Fraction of physical blocks reserved beyond the advertised capacity;
  /// the FTL's GC headroom.
  double over_provisioning = 0.07;
  CellType cell_type = CellType::tlc;
  int pe_cycle_limit = 3000;

  [[nodiscard]] util::Bytes block_size() const {
    return page_size * pages_per_block;
  }
  [[nodiscard]] util::Bytes physical_capacity() const {
    return block_size() * physical_blocks;
  }
  /// Logical (host-visible) pages after over-provisioning.
  [[nodiscard]] std::int64_t logical_pages() const {
    const auto physical_pages =
        static_cast<std::int64_t>(physical_blocks) * pages_per_block;
    return static_cast<std::int64_t>(
        static_cast<double>(physical_pages) * (1.0 - over_provisioning));
  }
  [[nodiscard]] util::Bytes logical_capacity() const {
    return logical_pages() * page_size;
  }
};

/// Builds a geometry with physical_blocks chosen so the logical capacity is
/// at least \p logical_capacity.
NandGeometry make_geometry(util::Bytes logical_capacity,
                           CellType cell_type = CellType::tlc,
                           double over_provisioning = 0.07,
                           util::Bytes page_size = util::kib(16),
                           int pages_per_block = 1024);

}  // namespace ssdtrain::hw
