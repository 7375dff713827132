#include "ssdtrain/hw/ssd/raid0.hpp"

#include "ssdtrain/util/check.hpp"
#include "ssdtrain/util/label.hpp"

namespace ssdtrain::hw {

Raid0Array::Raid0Array(sim::BandwidthNetwork& network, std::string name,
                       std::vector<SsdSpec> member_specs, util::Bytes chunk)
    : network_(network), name_(std::move(name)), chunk_(chunk) {
  util::expects(!member_specs.empty(), "RAID0 needs at least one member");
  util::expects(chunk > 0, "chunk must be positive");
  members_.reserve(member_specs.size());
  failed_.assign(member_specs.size(), false);
  util::BytesPerSecond write_bw = 0.0;
  util::BytesPerSecond read_bw = 0.0;
  for (std::size_t i = 0; i < member_specs.size(); ++i) {
    auto spec = member_specs[i];
    spec.name = name_ + "/" + spec.name +
                util::label("#", static_cast<std::int64_t>(i));
    write_bw += spec.seq_write_bandwidth;
    read_bw += spec.seq_read_bandwidth;
    members_.push_back(std::make_unique<SsdDevice>(network, spec));
  }
  write_resource_ = network.add_resource(name_ + ":write", write_bw);
  read_resource_ = network.add_resource(name_ + ":read", read_bw);
}

const SsdDevice& Raid0Array::member(std::size_t i) const {
  util::expects(i < members_.size(), "member index out of range");
  return *members_[i];
}

util::BytesPerSecond Raid0Array::nominal_write_bandwidth() const {
  util::BytesPerSecond bw = 0.0;
  for (std::size_t i = 0; i < members_.size(); ++i) {
    if (!failed_[i]) bw += members_[i]->spec().seq_write_bandwidth;
  }
  return bw;
}

util::BytesPerSecond Raid0Array::nominal_read_bandwidth() const {
  util::BytesPerSecond bw = 0.0;
  for (std::size_t i = 0; i < members_.size(); ++i) {
    if (!failed_[i]) bw += members_[i]->spec().seq_read_bandwidth;
  }
  return bw;
}

void Raid0Array::fail_member(std::size_t i) {
  util::expects(i < members_.size(), "member index out of range");
  util::expects(!failed_[i], "member already failed");
  util::expects(surviving_members() > 1,
                "total array failure is not modeled: at least one member "
                "must survive");
  failed_[i] = true;
  refresh_aggregate_capacity();
}

bool Raid0Array::member_failed(std::size_t i) const {
  util::expects(i < members_.size(), "member index out of range");
  return failed_[i];
}

std::size_t Raid0Array::surviving_members() const {
  std::size_t n = 0;
  for (const bool f : failed_) n += f ? 0 : 1;
  return n;
}

bool Raid0Array::extent_lost(const ArrayExtent& extent) const {
  util::expects(extent.member_extents.size() == members_.size(),
                "extent does not belong to this array");
  for (std::size_t i = 0; i < members_.size(); ++i) {
    if (failed_[i] && extent.member_extents[i].page_count > 0) return true;
  }
  return false;
}

void Raid0Array::set_bandwidth_derate(double factor) {
  util::expects(factor > 0.0 && factor <= 1.0,
                "bandwidth derate must be in (0, 1]");
  bandwidth_derate_ = factor;
  refresh_aggregate_capacity();
}

ArrayExtent Raid0Array::allocate_extent(util::Bytes bytes) {
  util::expects(bytes > 0, "extent must be positive");
  ArrayExtent extent;
  extent.bytes = bytes;
  const auto n = static_cast<util::Bytes>(surviving_members());
  // Full stripes distribute evenly; the remainder still consumes one chunk
  // per touched member (RAID0 rounds to the stripe unit).
  const util::Bytes per_member_raw = (bytes + n - 1) / n;
  const util::Bytes per_member =
      (per_member_raw + chunk_ - 1) / chunk_ * chunk_;
  extent.member_extents.reserve(members_.size());
  for (std::size_t i = 0; i < members_.size(); ++i) {
    // Failed members get an empty sub-extent: index alignment with
    // members_ is part of the extent contract.
    extent.member_extents.push_back(failed_[i] ? SsdExtent{}
                                               : members_[i]->allocate_extent(
                                                     per_member));
  }
  return extent;
}

void Raid0Array::record_write(const ArrayExtent& extent) {
  util::expects(extent.member_extents.size() == members_.size(),
                "extent does not belong to this array");
  for (std::size_t i = 0; i < members_.size(); ++i) {
    if (failed_[i] || extent.member_extents[i].page_count == 0) continue;
    members_[i]->record_write(extent.member_extents[i]);
  }
  refresh_aggregate_capacity();
}

void Raid0Array::record_read(const ArrayExtent& extent) {
  util::expects(extent.member_extents.size() == members_.size(),
                "extent does not belong to this array");
  for (std::size_t i = 0; i < members_.size(); ++i) {
    if (failed_[i] || extent.member_extents[i].page_count == 0) continue;
    members_[i]->record_read(extent.member_extents[i]);
  }
}

void Raid0Array::release_extent(const ArrayExtent& extent) {
  util::expects(extent.member_extents.size() == members_.size(),
                "extent does not belong to this array");
  for (std::size_t i = 0; i < members_.size(); ++i) {
    if (failed_[i] || extent.member_extents[i].page_count == 0) continue;
    members_[i]->release_extent(extent.member_extents[i]);
  }
}

util::Bytes Raid0Array::live_bytes() const {
  util::Bytes total = 0;
  for (const auto& m : members_) total += m->live_bytes();
  return total;
}

util::Bytes Raid0Array::host_bytes_written() const {
  util::Bytes total = 0;
  for (const auto& m : members_) total += m->host_bytes_written();
  return total;
}

double Raid0Array::write_amplification() const {
  double weighted = 0.0;
  double weight = 0.0;
  for (const auto& m : members_) {
    const auto written = static_cast<double>(m->host_bytes_written());
    weighted += m->write_amplification() * written;
    weight += written;
  }
  return weight > 0.0 ? weighted / weight : 1.0;
}

double Raid0Array::endurance_consumed() const {
  double worst = 0.0;
  for (const auto& m : members_) {
    worst = std::max(worst, m->endurance_consumed());
  }
  return worst;
}

void Raid0Array::refresh_aggregate_capacity() {
  // The aggregate channel sustains the sum of what each surviving member
  // sustains under its current WAF, scaled by any fault-injected derate.
  util::BytesPerSecond bw = 0.0;
  for (std::size_t i = 0; i < members_.size(); ++i) {
    if (failed_[i]) continue;
    bw += members_[i]->spec().seq_write_bandwidth /
          members_[i]->write_amplification();
  }
  network_.set_capacity(write_resource_, bw * bandwidth_derate_);
  // The read channel only moves on dropout/derate; skipping the no-change
  // case keeps the no-fault event sequence untouched.
  const util::BytesPerSecond read_bw =
      nominal_read_bandwidth() * bandwidth_derate_;
  if (read_bw != network_.capacity(read_resource_)) {
    network_.set_capacity(read_resource_, read_bw);
  }
}

}  // namespace ssdtrain::hw
