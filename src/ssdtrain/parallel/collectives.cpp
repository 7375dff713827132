#include "ssdtrain/parallel/collectives.hpp"

#include "ssdtrain/util/check.hpp"

namespace ssdtrain::parallel {

namespace {
void check_args(util::Bytes bytes, int ranks) {
  util::expects(bytes >= 0, "negative message");
  util::expects(ranks >= 1, "ranks >= 1");
}
}  // namespace

double all_reduce_traffic(util::Bytes bytes, int ranks) {
  check_args(bytes, ranks);
  if (ranks == 1) return 0.0;
  return 2.0 * static_cast<double>(ranks - 1) / static_cast<double>(ranks) *
         static_cast<double>(bytes);
}

double all_gather_traffic(util::Bytes bytes, int ranks) {
  check_args(bytes, ranks);
  if (ranks == 1) return 0.0;
  return static_cast<double>(ranks - 1) / static_cast<double>(ranks) *
         static_cast<double>(bytes);
}

double reduce_scatter_traffic(util::Bytes bytes, int ranks) {
  return all_gather_traffic(bytes, ranks);
}

namespace {
util::Seconds ring_time(double traffic, int ranks, const FabricSpec& fabric) {
  if (ranks == 1 || traffic <= 0.0) return 0.0;
  util::expects(fabric.link_bandwidth > 0.0, "fabric needs bandwidth");
  return traffic / fabric.link_bandwidth +
         static_cast<double>(ranks - 1) * fabric.per_hop_latency;
}
}  // namespace

util::Seconds all_reduce_time(util::Bytes bytes, int ranks,
                              const FabricSpec& fabric) {
  return ring_time(all_reduce_traffic(bytes, ranks), ranks, fabric);
}

util::Seconds point_to_point_time(util::Bytes bytes,
                                  const FabricSpec& fabric) {
  util::expects(bytes >= 0, "negative message");
  if (bytes == 0) return 0.0;
  util::expects(fabric.link_bandwidth > 0.0, "fabric needs bandwidth");
  return static_cast<double>(bytes) / fabric.link_bandwidth +
         fabric.per_hop_latency;
}

}  // namespace ssdtrain::parallel
