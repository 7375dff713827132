#pragma once

/// \file bandwidth_network.hpp
/// Fluid-flow bandwidth model with max-min fair sharing. Resources are
/// capacity-limited links (a PCIe link, an SSD array's write channel, the
/// host DRAM bus); flows are in-flight transfers traversing one or more
/// resources. Rates are reallocated via progressive filling whenever a flow
/// starts or finishes, which reproduces the contention behaviour that
/// determines whether activation I/O hides behind compute.
///
/// Reallocation is incremental and batched: every mutation (flow start,
/// flow completion, capacity change) only marks the resources it touches
/// dirty, and one coalesced filling pass runs at the same simulated instant
/// — restricted to the connected component of flows and resources reachable
/// from the dirty set. Flows in unrelated components keep their rates, so
/// the progressive-filling pass (the superlinear part of the old
/// all-flows refill) scales with contention-domain size; the remaining
/// per-event work (advancing flows, picking the next completion) is one
/// linear scan over active flows. Progressive filling decomposes exactly
/// across components, so the incremental pass yields the same rates as a
/// full refill (the RefillPolicy::full reference mode re-fills everything
/// every pass and exists for differential testing).

#include <cstdint>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "ssdtrain/sim/simulator.hpp"
#include "ssdtrain/util/label.hpp"
#include "ssdtrain/util/unique_function.hpp"
#include "ssdtrain/util/units.hpp"

namespace ssdtrain::sim {

class BandwidthNetwork {
 public:
  using ResourceId = std::size_t;
  using FlowId = std::uint64_t;

  static constexpr double unlimited = std::numeric_limits<double>::infinity();

  /// Which flows a filling pass recomputes. `incremental` (the default)
  /// re-rates only the dirty connected component; `full` re-rates every
  /// flow, serving as the naive reference the property tests compare
  /// against.
  enum class RefillPolicy { incremental, full };

  explicit BandwidthNetwork(Simulator& sim,
                            RefillPolicy policy = RefillPolicy::incremental);
  BandwidthNetwork(const BandwidthNetwork&) = delete;
  BandwidthNetwork& operator=(const BandwidthNetwork&) = delete;

  /// Adds a capacity-limited resource; returns its id.
  ResourceId add_resource(std::string name, util::BytesPerSecond capacity);

  /// Changes a resource's capacity (used by experiments that degrade links).
  /// Active flows are re-rated from the current instant.
  void set_capacity(ResourceId id, util::BytesPerSecond capacity);

  [[nodiscard]] util::BytesPerSecond capacity(ResourceId id) const;

  /// Starts a transfer of \p bytes across \p path. \p on_complete fires at
  /// the simulated instant the last byte is delivered. \p rate_cap bounds
  /// this flow's rate regardless of available capacity (e.g. a single NVMe
  /// namespace's sequential-write ceiling). Zero-byte flows complete at the
  /// current time via a scheduled event. The label is a lazy util::Label
  /// id (never rendered on the flow path).
  FlowId start_flow(util::Label label, util::Bytes bytes,
                    std::vector<ResourceId> path, EventFn on_complete,
                    util::BytesPerSecond rate_cap = unlimited);

  [[nodiscard]] bool flow_active(FlowId id) const;

  /// Bytes not yet delivered for an active flow (0 for finished flows).
  [[nodiscard]] double flow_remaining(FlowId id) const;

  /// Total bytes delivered through a resource since construction.
  [[nodiscard]] double resource_delivered(ResourceId id) const;

  /// Time-integral utilisation of a resource in [0,1] over [0, now].
  [[nodiscard]] double resource_utilization(ResourceId id) const;

  [[nodiscard]] std::size_t active_flows() const { return active_count_; }

  /// Progressive-filling passes executed so far. A batch of same-instant
  /// flow starts coalesces into one pass, so this counts far fewer than the
  /// number of mutations.
  [[nodiscard]] std::uint64_t filling_passes() const {
    return filling_passes_;
  }

  /// Cumulative number of flows re-rated across all filling passes. Under
  /// the incremental policy this grows with contention-domain size rather
  /// than `passes * active_flows`.
  [[nodiscard]] std::uint64_t flows_refilled() const {
    return flows_refilled_;
  }

  [[nodiscard]] RefillPolicy refill_policy() const { return policy_; }

  /// Tears down one in-flight flow without delivering it (device dropout:
  /// the target vanished mid-transfer). Bytes moved so far stay credited to
  /// the path's delivered counters; the completion closure is destroyed
  /// unfired; the slot and its subscriber-index entries are reclaimed for
  /// reuse. Returns false when \p id is unknown or already finished (also
  /// for the pseudo-ids zero-byte flows return — those completed at start).
  bool cancel_flow(FlowId id);

  /// Discards all in-flight flows (with their completion closures) without
  /// delivering them. Teardown helper; see Simulator::drop_pending().
  void drop_flows();

 private:
  /// Slot index inside a FlowId; the high 32 bits carry a per-flow sequence
  /// number so ids stay unique across slot reuse.
  static constexpr std::uint32_t kInvalidSlot = 0xffffffffu;
  static constexpr std::uint32_t slot_of(FlowId id) {
    return static_cast<std::uint32_t>(id & 0xffffffffu);
  }

  struct Resource {
    std::string name;
    util::BytesPerSecond capacity = 0.0;
    double delivered = 0.0;
    /// Active flow slots whose path includes this resource, in flow-start
    /// order (removal is order-preserving so sums stay deterministic).
    std::vector<std::uint32_t> subscribers;
    bool dirty = false;  // queued in dirty_resources_
  };

  struct Flow {
    util::Label label;
    double remaining = 0.0;
    std::vector<ResourceId> path;
    util::BytesPerSecond rate_cap = unlimited;
    util::BytesPerSecond rate = 0.0;
    EventFn on_complete;
    FlowId id = 0;         // 0 = slot free
    bool in_component = false;  // scratch: collected for the current refill
    bool frozen = false;        // scratch for the progressive-filling pass
  };

  [[nodiscard]] const Flow* find_flow(FlowId id) const;

  /// Moves all flows forward to sim_.now() at their current rates.
  void advance();

  void mark_resource_dirty(ResourceId id);

  /// Arms the coalesced filling pass: the first mutation at an instant
  /// schedules a zero-delay flush event; later mutations at the same
  /// instant fold into it.
  void schedule_flush();

  /// Runs the coalesced pass: advance, re-fill dirty components, schedule
  /// the next completion tick.
  void flush();

  /// Progressive filling restricted to the connected component(s) reachable
  /// from the dirty resources (or everything under RefillPolicy::full).
  void refill_dirty();

  /// Scans active flows for the earliest completion and schedules on_tick.
  void schedule_next_completion();

  void on_tick(std::uint64_t epoch);

  /// Unsubscribes \p slot from its path, marks the path dirty, frees the
  /// slot.
  void remove_flow(std::uint32_t slot);

  Simulator& sim_;
  RefillPolicy policy_;
  std::vector<Resource> resources_;
  std::vector<Flow> slots_;
  /// Scratch for on_tick's drained-flow callbacks; reused so completion
  /// ticks allocate nothing at steady state.
  std::vector<std::pair<FlowId, EventFn>> tick_scratch_;
  std::vector<std::uint32_t> free_slots_;
  std::size_t active_count_ = 0;
  std::vector<ResourceId> dirty_resources_;
  std::vector<std::uint32_t> dirty_pathless_;  // flows with an empty path
  /// Scratch for refill_dirty: the resources and flows of the component it
  /// re-rates.
  std::vector<ResourceId> comp_resources_;
  std::vector<std::uint32_t> comp_flows_;
  bool flush_pending_ = false;
  std::uint64_t next_flow_seq_ = 1;
  TimePoint last_advance_ = 0.0;
  std::uint64_t epoch_ = 0;  // invalidates stale scheduled ticks
  std::uint64_t filling_passes_ = 0;
  std::uint64_t flows_refilled_ = 0;
};

}  // namespace ssdtrain::sim
