#pragma once

/// \file injector.hpp
/// Seed-driven fault injector. Binds a declarative FaultSpec list to a
/// simulated machine and schedules each fault's begin/end as first-class
/// simulator events: link and SSD derating windows move bandwidth-network
/// capacities, straggler windows scale a GPU's kernel times, RAID-member
/// dropouts and stage crashes bump the structural epoch (sessions discard
/// their recorded StepPrograms and re-trace), and io-error windows make the
/// offloader's per-attempt fault draws come up positive with the configured
/// rate. All randomness comes from one Xoshiro256 seeded by
/// FaultConfig::seed, and draws happen only inside active io-error windows,
/// so identical seeds give bit-identical runs — on the trace and the replay
/// path alike.

#include <cstdint>
#include <string>
#include <vector>

#include "ssdtrain/fault/fault.hpp"
#include "ssdtrain/fault/io_error.hpp"
#include "ssdtrain/hw/node.hpp"
#include "ssdtrain/sim/simulator.hpp"
#include "ssdtrain/util/rng.hpp"

namespace ssdtrain::trace {
class ChromeTrace;
}  // namespace ssdtrain::trace

namespace ssdtrain::fault {

/// One entry of the fault log: a window edge or a structural fault.
/// append_fault_events renders begin/end pairs as chrome-trace slices.
struct FaultEvent {
  sim::TimePoint time = 0.0;
  FaultKind kind = FaultKind::io_error;
  int gpu = -1;
  bool begin = true;
  std::string detail;
};

/// One destructive stage crash (stage-crash with lose=state) awaiting the
/// session's recovery driver. The injector stalls the crashed GPU's stream
/// for the restart duration, records this, and leaves restore + rollback to
/// the session: the crash wiped the stage's device state, so the next step
/// boundary must restore a committed checkpoint before training continues.
struct CrashRecord {
  int gpu = 0;
  sim::TimePoint at = 0.0;       ///< instant the crash fired
  sim::TimePoint restart = 0.0;  ///< instant the stage comes back up
};

class FaultInjector {
 public:
  FaultInjector(sim::Simulator& sim, FaultConfig config);
  FaultInjector(const FaultInjector&) = delete;
  FaultInjector& operator=(const FaultInjector&) = delete;

  /// Binds the machine and schedules every spec's window events. Call once,
  /// before the first step runs.
  void bind_node(hw::TrainingNode& node);

  /// Registers a DP-fabric port for \p gpu (cluster sessions create these
  /// per lane after node construction); dp-derate windows matching the GPU
  /// are scheduled against it here.
  void bind_dp_resource(int gpu, sim::BandwidthNetwork::ResourceId id);

  [[nodiscard]] bool enabled() const { return config_.enabled(); }
  [[nodiscard]] const FaultConfig& config() const { return config_; }

  /// Per-attempt transient-failure draw for offload I/O on \p gpu. Consumes
  /// one RNG draw only while an io-error window covering the GPU is active,
  /// so the draw sequence tracks the (deterministic) I/O sequence.
  IoError io_attempt(int gpu);

  /// Sum of the active ssd-latency windows covering \p gpu.
  [[nodiscard]] util::Seconds extra_io_latency(int gpu) const;

  /// Bumped by every structural fault: a RAID member dropout, or a stage
  /// crash that keeps its state. Sessions compare it against the value they
  /// last saw and discard recorded StepPrograms when it moved. Timing-only
  /// faults never touch it, and neither do the offloader's reactions: a
  /// recompute fallback after a transient error only delays one load, and
  /// one after a dropout follows the dropout that already bumped it.
  [[nodiscard]] std::uint64_t structural_epoch() const {
    return structural_epoch_;
  }

  /// Applies a fault at the current simulated instant (benches and tests
  /// trigger dropouts at step boundaries); windowed kinds run from now for
  /// spec.duration.
  void trigger(FaultSpec spec);

  /// Complete fault log in time order (window edges + structural events).
  [[nodiscard]] const std::vector<FaultEvent>& events() const {
    return events_;
  }

  /// Destructive crashes (lose=state) that fired since the last
  /// take_crashes(). Sessions poll this at every step boundary and run
  /// their checkpoint-restore recovery driver when it is non-empty.
  [[nodiscard]] const std::vector<CrashRecord>& pending_crashes() const {
    return crashes_;
  }
  /// Consumes the pending crashes (the recovery driver has handled them).
  [[nodiscard]] std::vector<CrashRecord> take_crashes();

 private:
  struct DpPort {
    int gpu = 0;
    sim::BandwidthNetwork::ResourceId id = 0;
    util::BytesPerSecond base = 0.0;
  };

  [[nodiscard]] static bool covers(const FaultSpec& spec, int gpu) {
    return spec.gpu < 0 || spec.gpu == gpu;
  }
  /// Product of the active specs of \p kind covering \p gpu (1.0 when
  /// none — the exact restore value).
  [[nodiscard]] double active_factor(FaultKind kind, int gpu) const;

  void schedule_windows(std::size_t index);
  void apply_begin(std::size_t index);
  void apply_end(std::size_t index);
  /// Logs a structural fault and bumps the epoch.
  void note_structural(FaultKind kind, int gpu, std::string detail);
  void apply_dropout(const FaultSpec& spec);
  void apply_stage_crash(const FaultSpec& spec);
  void refresh_derates(FaultKind kind, int gpu);
  void log(const FaultSpec& spec, bool begin);

  sim::Simulator& sim_;
  FaultConfig config_;
  std::vector<char> active_;  ///< index-aligned with config_.specs
  util::Xoshiro256 rng_;
  hw::TrainingNode* node_ = nullptr;
  std::vector<util::BytesPerSecond> pcie_tx_base_;
  std::vector<util::BytesPerSecond> pcie_rx_base_;
  std::vector<util::BytesPerSecond> nvlink_port_base_;
  util::BytesPerSecond nvlink_base_ = 0.0;
  std::vector<DpPort> dp_ports_;
  std::uint64_t structural_epoch_ = 0;
  std::vector<FaultEvent> events_;
  std::vector<CrashRecord> crashes_;  ///< lose=state crashes, unconsumed
};

/// Renders a fault log onto a "faults" track of \p chrome: window begin/end
/// pairs become slices spanning the window, structural events (dropouts,
/// stage crashes) become zero-width markers at the instant they fired.
/// \p horizon caps open-ended windows at the end of the traced range.
void append_fault_events(trace::ChromeTrace& chrome,
                         const std::vector<FaultEvent>& log,
                         util::Seconds horizon);

}  // namespace ssdtrain::fault
