#include "ssdtrain/hw/ssd/nand.hpp"

#include <cmath>

#include "ssdtrain/util/check.hpp"

namespace ssdtrain::hw {

int default_pe_cycle_limit(CellType type) {
  switch (type) {
    case CellType::slc:
      return 100000;
    case CellType::mlc:
      return 10000;
    case CellType::tlc:
      return 3000;
    case CellType::qlc:
      return 1000;
  }
  return 3000;
}

NandGeometry make_geometry(util::Bytes logical_capacity, CellType cell_type,
                           double over_provisioning, util::Bytes page_size,
                           int pages_per_block) {
  util::expects(logical_capacity > 0, "capacity must be positive");
  util::expects(over_provisioning > 0.0 && over_provisioning < 0.5,
                "over-provisioning out of sane range");
  NandGeometry geo;
  geo.page_size = page_size;
  geo.pages_per_block = pages_per_block;
  geo.over_provisioning = over_provisioning;
  geo.cell_type = cell_type;
  geo.pe_cycle_limit = default_pe_cycle_limit(cell_type);
  const double block_bytes = static_cast<double>(geo.block_size());
  const double needed_physical =
      static_cast<double>(logical_capacity) / (1.0 - over_provisioning);
  geo.physical_blocks =
      static_cast<int>(std::ceil(needed_physical / block_bytes));
  // logical_pages() floors twice (pages per block, OP fraction); top up the
  // block count until the host-visible capacity actually covers the request.
  while (geo.logical_capacity() < logical_capacity) {
    ++geo.physical_blocks;
  }
  util::ensures(geo.logical_capacity() >= logical_capacity,
                "geometry does not cover requested capacity");
  return geo;
}

}  // namespace ssdtrain::hw
