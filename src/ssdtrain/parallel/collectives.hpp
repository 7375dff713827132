#pragma once

/// \file collectives.hpp
/// Ring-collective cost model. Standard alpha-beta formulation: an
/// all-reduce of S bytes across n ranks moves 2(n-1)/n * S bytes through
/// each rank's link; all-gather and reduce-scatter move (n-1)/n * S.
/// Used for TP collectives inside transformer layers (over NVLink) and for
/// DP/ZeRO traffic (over the inter-node fabric) in the analytic model.

#include "ssdtrain/util/units.hpp"

namespace ssdtrain::parallel {

struct FabricSpec {
  util::BytesPerSecond link_bandwidth = 0.0;  ///< per-rank unidirectional
  util::Seconds per_hop_latency = util::us(5);
};

/// Bytes crossing each rank's link for an all-reduce of \p bytes.
double all_reduce_traffic(util::Bytes bytes, int ranks);
double all_gather_traffic(util::Bytes bytes, int ranks);
double reduce_scatter_traffic(util::Bytes bytes, int ranks);

util::Seconds all_reduce_time(util::Bytes bytes, int ranks,
                              const FabricSpec& fabric);
util::Seconds point_to_point_time(util::Bytes bytes,
                                  const FabricSpec& fabric);

}  // namespace ssdtrain::parallel
