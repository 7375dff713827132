#pragma once

/// \file raid0.hpp
/// Software RAID0 over multiple SSDs, matching the evaluation machine in the
/// paper's Table II (7× Optane P5800X organised as one 3-disk and one 4-disk
/// array, each array dedicated to one GPU). Writes stripe across members in
/// chunk-sized units, so array bandwidth is the sum of member bandwidths and
/// wear spreads evenly.

#include <memory>
#include <string>
#include <vector>

#include "ssdtrain/hw/ssd/ssd_device.hpp"
#include "ssdtrain/sim/bandwidth_network.hpp"

namespace ssdtrain::hw {

/// An extent striped across the array: one sub-extent per member.
struct ArrayExtent {
  util::Bytes bytes = 0;
  std::vector<SsdExtent> member_extents;  ///< index-aligned with members
};

class Raid0Array {
 public:
  /// \p chunk is the stripe unit (md-raid default is 512 KiB).
  Raid0Array(sim::BandwidthNetwork& network, std::string name,
             std::vector<SsdSpec> member_specs,
             util::Bytes chunk = util::kib(512));

  [[nodiscard]] const std::string& name() const { return name_; }
  [[nodiscard]] std::size_t member_count() const { return members_.size(); }
  [[nodiscard]] const SsdDevice& member(std::size_t i) const;

  /// Aggregate bandwidth-network resources; transfer flows route through
  /// these (member channels cap the aggregate via refresh on write).
  [[nodiscard]] sim::BandwidthNetwork::ResourceId write_resource() const {
    return write_resource_;
  }
  [[nodiscard]] sim::BandwidthNetwork::ResourceId read_resource() const {
    return read_resource_;
  }

  [[nodiscard]] util::BytesPerSecond nominal_write_bandwidth() const;
  [[nodiscard]] util::BytesPerSecond nominal_read_bandwidth() const;

  /// Stripes \p bytes across the surviving members (each gets ceil to
  /// chunk); failed members get an empty sub-extent so index alignment with
  /// `members_` is preserved.
  ArrayExtent allocate_extent(util::Bytes bytes);
  void record_write(const ArrayExtent& extent);
  void record_read(const ArrayExtent& extent);
  void release_extent(const ArrayExtent& extent);

  // -- fault model ----------------------------------------------------------
  /// Permanently drops member \p i out of the array (device dropout). New
  /// extents stripe over the survivors at their summed bandwidth; extents
  /// with pages on the failed member report extent_lost(). At least one
  /// member must survive — a fully dead array would strand in-flight flows
  /// on a zero-capacity channel.
  void fail_member(std::size_t i);
  [[nodiscard]] bool member_failed(std::size_t i) const;
  [[nodiscard]] std::size_t surviving_members() const;
  /// True when any stripe of \p extent lives on a failed member (the data
  /// is unrecoverable — RAID0 has no parity).
  [[nodiscard]] bool extent_lost(const ArrayExtent& extent) const;
  /// Fault-injected throughput multiplier in (0, 1], folded into every
  /// aggregate-capacity refresh (refresh runs after each write, so setting
  /// the network capacity directly would be overwritten).
  void set_bandwidth_derate(double factor);

  [[nodiscard]] util::Bytes live_bytes() const;
  [[nodiscard]] util::Bytes host_bytes_written() const;
  /// Host-write-weighted mean WAF across members.
  [[nodiscard]] double write_amplification() const;
  /// Worst member's consumed endurance fraction (the array fails first
  /// where wear concentrates).
  [[nodiscard]] double endurance_consumed() const;

 private:
  void refresh_aggregate_capacity();

  sim::BandwidthNetwork& network_;
  std::string name_;
  util::Bytes chunk_;
  std::vector<std::unique_ptr<SsdDevice>> members_;
  std::vector<bool> failed_;  ///< index-aligned with members_
  double bandwidth_derate_ = 1.0;
  sim::BandwidthNetwork::ResourceId write_resource_;
  sim::BandwidthNetwork::ResourceId read_resource_;
};

}  // namespace ssdtrain::hw
