#include "ssdtrain/fault/injector.hpp"

#include <algorithm>
#include <utility>

#include "ssdtrain/sim/completion.hpp"
#include "ssdtrain/trace/chrome_trace.hpp"
#include "ssdtrain/util/check.hpp"
#include "ssdtrain/util/label.hpp"

namespace ssdtrain::fault {

FaultInjector::FaultInjector(sim::Simulator& sim, FaultConfig config)
    : sim_(sim), config_(std::move(config)), rng_(config_.seed) {
  active_.assign(config_.specs.size(), 0);
}

void FaultInjector::bind_node(hw::TrainingNode& node) {
  util::expects(node_ == nullptr, "fault injector already bound to a node");
  node_ = &node;
  auto& net = node.network();
  for (int g = 0; g < node.gpu_count(); ++g) {
    auto& ctx = node.gpu(g);
    pcie_tx_base_.push_back(net.capacity(ctx.pcie_tx));
    pcie_rx_base_.push_back(net.capacity(ctx.pcie_rx));
    nvlink_port_base_.push_back(net.capacity(ctx.nvlink_port));
  }
  nvlink_base_ = net.capacity(node.nvlink_resource());
  for (std::size_t i = 0; i < config_.specs.size(); ++i) schedule_windows(i);
}

void FaultInjector::bind_dp_resource(int gpu,
                                     sim::BandwidthNetwork::ResourceId id) {
  util::expects(node_ != nullptr, "bind_node must come first");
  dp_ports_.push_back(
      DpPort{gpu, id, node_->network().capacity(id)});
}

IoError FaultInjector::io_attempt(int gpu) {
  double survive = 1.0;
  for (std::size_t i = 0; i < config_.specs.size(); ++i) {
    const FaultSpec& spec = config_.specs[i];
    if (active_[i] != 0 && spec.kind == FaultKind::io_error &&
        covers(spec, gpu)) {
      survive *= 1.0 - spec.rate;
    }
  }
  const double fail = 1.0 - survive;
  if (fail <= 0.0) return {};
  // The draw happens only inside an active window: the RNG sequence tracks
  // the I/O sequence, which trace and replay keep bit-identical.
  if (rng_.uniform() < fail) return IoError{IoErrorCode::transient};
  return {};
}

util::Seconds FaultInjector::extra_io_latency(int gpu) const {
  util::Seconds extra = 0.0;
  for (std::size_t i = 0; i < config_.specs.size(); ++i) {
    const FaultSpec& spec = config_.specs[i];
    if (active_[i] != 0 && spec.kind == FaultKind::ssd_latency &&
        covers(spec, gpu)) {
      extra += spec.latency;
    }
  }
  return extra;
}

void FaultInjector::note_structural(FaultKind kind, int gpu,
                                    std::string detail) {
  ++structural_epoch_;
  events_.push_back(FaultEvent{sim_.now(), kind, gpu, true,
                               std::move(detail)});
}

void FaultInjector::trigger(FaultSpec spec) {
  util::expects(node_ != nullptr, "bind_node must come first");
  spec.at = sim_.now();
  config_.specs.push_back(spec);
  active_.push_back(0);
  const std::size_t index = config_.specs.size() - 1;
  switch (spec.kind) {
    case FaultKind::ssd_dropout:
      apply_dropout(spec);
      break;
    case FaultKind::stage_crash:
      apply_stage_crash(spec);
      break;
    default:
      apply_begin(index);
      if (spec.duration != FaultSpec::open_ended) {
        sim_.schedule_at(spec.end(), [this, index] { apply_end(index); });
      }
      break;
  }
}

double FaultInjector::active_factor(FaultKind kind, int gpu) const {
  double factor = 1.0;
  for (std::size_t i = 0; i < config_.specs.size(); ++i) {
    const FaultSpec& spec = config_.specs[i];
    if (active_[i] != 0 && spec.kind == kind && covers(spec, gpu)) {
      factor *= spec.factor;
    }
  }
  return factor;
}

void FaultInjector::schedule_windows(std::size_t index) {
  const FaultSpec spec = config_.specs[index];
  const sim::TimePoint begin_t = std::max(spec.at, sim_.now());
  switch (spec.kind) {
    case FaultKind::ssd_dropout:
      sim_.schedule_at(begin_t,
                       [this, index] { apply_dropout(config_.specs[index]); });
      break;
    case FaultKind::stage_crash:
      sim_.schedule_at(begin_t, [this, index] {
        apply_stage_crash(config_.specs[index]);
      });
      break;
    default: {
      sim_.schedule_at(begin_t, [this, index] { apply_begin(index); });
      if (spec.duration != FaultSpec::open_ended) {
        const sim::TimePoint end_t = std::max(spec.end(), begin_t);
        sim_.schedule_at(end_t, [this, index] { apply_end(index); });
      }
      break;
    }
  }
}

void FaultInjector::apply_begin(std::size_t index) {
  const FaultSpec spec = config_.specs[index];
  active_[index] = 1;
  log(spec, true);
  refresh_derates(spec.kind, spec.gpu);
}

void FaultInjector::apply_end(std::size_t index) {
  const FaultSpec spec = config_.specs[index];
  active_[index] = 0;
  log(spec, false);
  // With no window left active the factor product is exactly 1.0, so the
  // restored capacities/time scales equal the bound bases bit-for-bit.
  refresh_derates(spec.kind, spec.gpu);
}

std::vector<CrashRecord> FaultInjector::take_crashes() {
  return std::exchange(crashes_, {});
}

void FaultInjector::apply_dropout(const FaultSpec& spec) {
  int matched = 0;
  for (int g = 0; g < node_->gpu_count(); ++g) {
    if (!covers(spec, g) || !node_->has_array(g)) continue;
    ++matched;
    auto& array = node_->array(g);
    const auto member = static_cast<std::size_t>(spec.member);
    util::expects(member < array.member_count(),
                  "ssd-dropout member index out of range");
    if (array.member_failed(member) || array.surviving_members() <= 1) {
      continue;  // already dead, or the last survivor — not modeled
    }
    array.fail_member(member);
    note_structural(FaultKind::ssd_dropout, g,
                    array.name() + " member " + std::to_string(spec.member) +
                        " dropped");
  }
  if (matched == 0) {
    // A typo'd gpu= (or a GPU without an array) would otherwise vanish
    // silently; the warning makes the dead spec diagnosable from the log.
    events_.push_back(FaultEvent{sim_.now(), spec.kind, spec.gpu, true,
                                 "fault matched no target: " +
                                     spec.to_text()});
  }
}

void FaultInjector::apply_stage_crash(const FaultSpec& spec) {
  const sim::TimePoint end_t = sim_.now() + spec.duration;
  int matched = 0;
  for (int g = 0; g < node_->gpu_count(); ++g) {
    if (!covers(spec, g)) continue;
    ++matched;
    // The stream stalls until the restart completion fires: tasks already
    // launched drain, everything enqueued after this instant waits — the
    // stall then propagates through pipeline dependencies.
    auto restart = sim::Completion::create(sim_, util::Label("stage-restart"));
    sim_.schedule_at(end_t, [restart] { restart->fire(); });
    node_->gpu(g).compute_stream->wait_for(restart);
    if (spec.lose == CrashLoss::state) {
      // Destructive crash: the stage's device state is gone. No structural
      // epoch bump — the restored machine is the recorded one, so the
      // StepProgram stays valid — but the session must run its recovery
      // driver (restore + rollback) before the next step commits.
      crashes_.push_back(CrashRecord{g, sim_.now(), end_t});
      events_.push_back(FaultEvent{sim_.now(), FaultKind::stage_crash, g,
                                   true,
                                   "stage crash (state lost), restart after " +
                                       std::to_string(spec.duration) + "s"});
    } else {
      note_structural(FaultKind::stage_crash, g,
                      "stage crash, restart after " +
                          std::to_string(spec.duration) + "s");
    }
  }
  if (matched == 0) {
    events_.push_back(FaultEvent{sim_.now(), spec.kind, spec.gpu, true,
                                 "fault matched no target: " +
                                     spec.to_text()});
    return;
  }
  const FaultSpec logged = spec;
  sim_.schedule_at(end_t, [this, logged] { log(logged, false); });
}

void FaultInjector::refresh_derates(FaultKind kind, int spec_gpu) {
  auto& net = node_->network();
  const int first = spec_gpu >= 0 ? spec_gpu : 0;
  const int last = spec_gpu >= 0 ? spec_gpu + 1 : node_->gpu_count();
  switch (kind) {
    case FaultKind::ssd_derate:
      for (int g = first; g < last; ++g) {
        if (!node_->has_array(g)) continue;
        node_->array(g).set_bandwidth_derate(
            active_factor(FaultKind::ssd_derate, g));
      }
      break;
    case FaultKind::pcie_derate:
      for (int g = first; g < last; ++g) {
        const double f = active_factor(FaultKind::pcie_derate, g);
        auto& ctx = node_->gpu(g);
        net.set_capacity(ctx.pcie_tx,
                         pcie_tx_base_[static_cast<std::size_t>(g)] * f);
        net.set_capacity(ctx.pcie_rx,
                         pcie_rx_base_[static_cast<std::size_t>(g)] * f);
      }
      break;
    case FaultKind::nvlink_derate: {
      // Global windows (gpu = -1) derate the shared spine; targeted ones
      // derate that GPU's injection port.
      double shared = 1.0;
      for (std::size_t i = 0; i < config_.specs.size(); ++i) {
        const FaultSpec& s = config_.specs[i];
        if (active_[i] != 0 && s.kind == FaultKind::nvlink_derate &&
            s.gpu < 0) {
          shared *= s.factor;
        }
      }
      net.set_capacity(node_->nvlink_resource(), nvlink_base_ * shared);
      for (int g = first; g < last; ++g) {
        double port = 1.0;
        for (std::size_t i = 0; i < config_.specs.size(); ++i) {
          const FaultSpec& s = config_.specs[i];
          if (active_[i] != 0 && s.kind == FaultKind::nvlink_derate &&
              s.gpu == g) {
            port *= s.factor;
          }
        }
        net.set_capacity(node_->gpu(g).nvlink_port,
                         nvlink_port_base_[static_cast<std::size_t>(g)] *
                             port);
      }
      break;
    }
    case FaultKind::dp_derate:
      for (const DpPort& port : dp_ports_) {
        if (spec_gpu >= 0 && port.gpu != spec_gpu) continue;
        net.set_capacity(port.id,
                         port.base *
                             active_factor(FaultKind::dp_derate, port.gpu));
      }
      break;
    case FaultKind::gpu_straggler:
      for (int g = first; g < last; ++g) {
        node_->gpu(g).gpu->set_time_scale(
            active_factor(FaultKind::gpu_straggler, g));
      }
      break;
    case FaultKind::ssd_latency:
    case FaultKind::io_error:
    case FaultKind::ssd_dropout:
    case FaultKind::stage_crash:
      break;  // queried (or handled elsewhere), no capacity to move
  }
}

void FaultInjector::log(const FaultSpec& spec, bool begin) {
  events_.push_back(
      FaultEvent{sim_.now(), spec.kind, spec.gpu, begin, spec.to_text()});
}

void append_fault_events(trace::ChromeTrace& chrome,
                         const std::vector<FaultEvent>& log,
                         util::Seconds horizon) {
  static const std::string kTrack = "faults";
  // Pair each begin with the first unmatched end of the same spec text
  // (the log is in time order, and detail round-trips the spec).
  std::vector<char> consumed(log.size(), 0);
  for (std::size_t i = 0; i < log.size(); ++i) {
    const FaultEvent& ev = log[i];
    if (!ev.begin) continue;
    util::Seconds end = horizon;
    for (std::size_t j = i + 1; j < log.size(); ++j) {
      if (consumed[j] == 0 && !log[j].begin && log[j].detail == ev.detail) {
        consumed[j] = 1;
        end = log[j].time;
        break;
      }
    }
    const std::string name = std::string(to_string(ev.kind)) +
                             (ev.gpu >= 0
                                  ? " gpu" + std::to_string(ev.gpu)
                                  : std::string()) +
                             ": " + ev.detail;
    chrome.add_event(
        trace::TraceEvent{name, kTrack, ev.time, std::max(end, ev.time)});
  }
}

}  // namespace ssdtrain::fault
