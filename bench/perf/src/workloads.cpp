// The five workloads. Four drive one session type each through fixed-length
// points (fresh session, recording step, warm steps, timed steps); the fifth
// runs a cold paper-figure grid on two sweep workers. Each point and each
// grid is the same work every time, so a faster build runs more of them in
// the window, never different ones. README.md says why each workload exists.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "perf.hpp"
#include "ssdtrain/ckpt/policy.hpp"
#include "ssdtrain/fault/fault.hpp"
#include "ssdtrain/hw/catalog.hpp"
#include "ssdtrain/modules/model.hpp"
#include "ssdtrain/runtime/cluster_session.hpp"
#include "ssdtrain/runtime/program_cache.hpp"
#include "ssdtrain/runtime/session.hpp"
#include "ssdtrain/sweep/runner.hpp"
#include "ssdtrain/util/rng.hpp"

namespace perf {
namespace {

namespace f = ssdtrain::fault;
namespace hw = ssdtrain::hw;
namespace m = ssdtrain::modules;
namespace rt = ssdtrain::runtime;
namespace sweep = ssdtrain::sweep;
namespace u = ssdtrain::util;

/// Replayed steps after the recording step and before timing starts, so
/// every pool and ring has reached its high-water mark.
constexpr int kWarmSteps = 3;

struct StepRecord {
  rt::StepStats stats;  ///< the cluster-wide aggregate for a ClusterSession
  std::uint64_t digest = 0;
  std::uint64_t events = 0;
};

/// One live session under measurement.
class Session {
 public:
  virtual ~Session() = default;
  virtual StepRecord step() = 0;
  virtual hw::TrainingNode& node() = 0;
  [[nodiscard]] virtual std::vector<const rt::StepProgram*> programs()
      const = 0;
  virtual double goodput() = 0;
};

/// Destructive stage crashes at step boundaries: arrivals come from a
/// fault::CrashSchedule whose clock is the step count, shifted by a
/// seed-drawn offset, starting at step `first_step`.
struct CrashPlan {
  int gpu = 0;
  double mtbf_steps = 0.0;
  double offset_steps = 0.0;
  int first_step = 0;
};

class SingleSession final : public Session {
 public:
  SingleSession(rt::SessionConfig config, std::optional<CrashPlan> crashes)
      : session_(std::move(config)),
        crashes_(crashes),
        schedule_(crashes ? crashes->mtbf_steps : 1.0) {}

  StepRecord step() override {
    if (crashes_ && steps_ >= crashes_->first_step &&
        schedule_.consume(steps_ - crashes_->first_step +
                          crashes_->offset_steps) > 0) {
      f::FaultSpec crash;
      crash.kind = f::FaultKind::stage_crash;
      crash.gpu = crashes_->gpu;
      crash.duration = 0.25;  // node restart before the restore begins
      crash.lose = f::CrashLoss::state;
      session_.injector()->trigger(crash);
    }
    ++steps_;
    const std::uint64_t before = session_.node().simulator().events_executed();
    StepRecord r;
    r.stats = session_.run_step();
    r.events = session_.node().simulator().events_executed() - before;
    Digest d;
    add_step_stats(d, r.stats);
    d.add(r.events);
    r.digest = d.value();
    return r;
  }

  hw::TrainingNode& node() override { return session_.node(); }

  [[nodiscard]] std::vector<const rt::StepProgram*> programs() const override {
    if (session_.program() == nullptr) return {};
    return {session_.program()};
  }

  double goodput() override { return session_.goodput().goodput(); }

 private:
  rt::TrainingSession session_;
  std::optional<CrashPlan> crashes_;
  f::CrashSchedule schedule_;
  int steps_ = 0;
};

class ClusterRun final : public Session {
 public:
  explicit ClusterRun(rt::ClusterConfig config) : session_(std::move(config)) {}

  StepRecord step() override {
    const std::uint64_t before = session_.node().simulator().events_executed();
    const rt::ClusterStepStats s = session_.run_step();
    StepRecord r;
    r.stats = s.combined;
    r.events = session_.node().simulator().events_executed() - before;
    Digest d;
    add_step_stats(d, s.combined);
    d.add(s.pipeline_time);
    d.add(s.measured_bubble);
    d.add(s.ideal_bubble);
    d.add(static_cast<std::uint64_t>(s.p2p_bytes));
    d.add(static_cast<std::uint64_t>(s.dp_bytes));
    for (const rt::StageStepStats& stage : s.per_stage) {
      d.add(static_cast<std::uint64_t>(stage.gpu));
      d.add(static_cast<std::uint64_t>(stage.chunk));
      add_step_stats(d, stage.stats);
    }
    d.add(r.events);
    r.digest = d.value();
    return r;
  }

  hw::TrainingNode& node() override { return session_.node(); }

  [[nodiscard]] std::vector<const rt::StepProgram*> programs() const override {
    std::vector<const rt::StepProgram*> out;
    for (int vs = 0; vs < session_.virtual_stage_count(); ++vs) {
      if (session_.program(vs) != nullptr) out.push_back(session_.program(vs));
    }
    return out;
  }

  double goodput() override { return session_.goodput().goodput(); }

 private:
  rt::ClusterSession session_;
};

/// Network and FTL counters of a node, summed over every drive.
struct NodeSnapshot {
  std::uint64_t filling_passes = 0;
  std::uint64_t flows_refilled = 0;
  std::int64_t host_pages = 0;
  std::int64_t media_pages = 0;
  std::int64_t gc_runs = 0;
};

NodeSnapshot snapshot(hw::TrainingNode& node) {
  NodeSnapshot s;
  s.filling_passes = node.network().filling_passes();
  s.flows_refilled = node.network().flows_refilled();
  for (int g = 0; g < node.gpu_count(); ++g) {
    if (!node.has_array(g)) continue;
    const hw::Raid0Array& array = node.array(g);
    for (std::size_t i = 0; i < array.member_count(); ++i) {
      const hw::Ftl& ftl = array.member(i).ftl();
      s.host_pages += ftl.host_pages_written();
      s.media_pages += ftl.media_pages_written();
      s.gc_runs += ftl.gc_runs();
    }
  }
  return s;
}

/// Fills the step-derived counters from the steps' results and the node's
/// counters around them.
void count_steps(Counters& c, const NodeSnapshot& before,
                 const NodeSnapshot& after, const rt::StepStats& first_prev,
                 const rt::StepStats& last) {
  c.filling_passes = after.filling_passes - before.filling_passes;
  c.flows_refilled = after.flows_refilled - before.flows_refilled;
  c.host_pages = after.host_pages - before.host_pages;
  c.media_pages = after.media_pages - before.media_pages;
  c.gc_runs = after.gc_runs - before.gc_runs;
  c.packs = last.cache.packs - first_prev.cache.packs;
  c.offload_started =
      last.cache.offload_started - first_prev.cache.offload_started;
  c.forwards = last.cache.forwards - first_prev.cache.forwards;
  c.wasted_stores = last.cache.wasted_stores - first_prev.cache.wasted_stores;
  c.stores = last.offloader_totals.stores - first_prev.offloader_totals.stores;
  c.loads = last.offloader_totals.loads - first_prev.offloader_totals.loads;
  c.bytes_stored = static_cast<std::uint64_t>(
      last.offloader_totals.bytes_stored -
      first_prev.offloader_totals.bytes_stored);
}

void count_recovery(Counters& c, const rt::StepStats& s) {
  if (s.checkpoint_time > 0.0) ++c.commits;
  if (s.restore_time > 0.0) ++c.restores;
  c.rollback_steps += s.rollback_steps;
}

/// Median step time of the last tenth of \p times over the first tenth.
double growth(const std::vector<double>& times) {
  const std::size_t k = std::max<std::size_t>(1, times.size() / 10);
  const std::vector<double> head(times.begin(), times.begin() + k);
  const std::vector<double> tail(times.end() - k, times.end());
  return median(tail) / median(head);
}

/// Fails every step of the trace-path \p reference that the replayed
/// \p measured prefix does not match bit for bit.
void check_gate(const std::vector<std::uint64_t>& reference,
                const std::vector<std::uint64_t>& measured,
                const std::string& what, Status& status) {
  for (std::size_t i = 0; i < reference.size(); ++i) {
    ++status.attempted;
    if (i >= measured.size() || measured[i] != reference[i]) {
      status.fail(what + ": replayed step " + std::to_string(i) +
                  " differs from the trace path");
    }
  }
}

/// Calls \p unit(first) at least \p min_units times, then again while one
/// more call, as long as the last one, would still end within \p budget_s.
template <typename F>
void repeat_within(double budget_s, int min_units, F unit) {
  const Clock::time_point start = Clock::now();
  double last_s = 0.0;
  for (int i = 0;; ++i) {
    if (i >= min_units &&
        seconds_between(start, Clock::now()) + last_s > budget_s) {
      return;
    }
    const Clock::time_point begin = Clock::now();
    unit(i == 0);
    last_s = seconds_between(begin, Clock::now());
  }
}

// -- session workloads --------------------------------------------------------

struct SessionSpec {
  std::string inputs;   ///< what the seed chose, for the log
  int timed_steps = 0;  ///< per point
  int gate_steps = 0;   ///< trace-path reference prefix, recording step first
  std::function<std::unique_ptr<Session>(bool use_replay)> make;
  ProbeInputs probe;
};

class SessionWorkload final : public Workload {
 public:
  explicit SessionWorkload(SessionSpec spec) : spec_(std::move(spec)) {
    spec_.gate_steps =
        std::min(spec_.gate_steps, 1 + kWarmSteps + spec_.timed_steps);
  }

  void prepare(Status& status) override {
    try {
      std::unique_ptr<Session> session = spec_.make(/*use_replay=*/false);
      for (int i = 0; i < spec_.gate_steps; ++i) {
        ++status.attempted;
        gate_.push_back(session->step().digest);
      }
    } catch (const std::exception& e) {
      status.fail(std::string("trace-path reference: ") + e.what());
    }
  }

  Window run_window(double budget_s, int min_units, Tracer& tracer,
                    Status& status) override {
    Window w;
    Tracer::Span grid(tracer, "sweep.grid");
    repeat_within(budget_s, min_units, [&](bool first) {
      run_point(w, first, tracer, status);
    });
    return w;
  }

  [[nodiscard]] ProbeInputs probe_inputs() const override {
    return spec_.probe;
  }

  [[nodiscard]] std::string inputs() const override { return spec_.inputs; }

  void with_programs(
      const std::function<void(std::span<const rt::StepProgram* const>)>& fn,
      Status& status) override {
    try {
      std::unique_ptr<Session> session = spec_.make(/*use_replay=*/true);
      session->step();
      const std::vector<const rt::StepProgram*> programs =
          session->programs();
      fn(programs);
    } catch (const std::exception& e) {
      status.fail(std::string("program probe: ") + e.what());
    }
  }

 private:
  void run_point(Window& w, bool first, Tracer& tracer, Status& status) {
    Tracer::Span point(tracer, "sweep.point");
    const Clock::time_point start = Clock::now();
    const auto k_steps = static_cast<std::size_t>(spec_.timed_steps);
    try {
      std::unique_ptr<Session> session;
      {
        Tracer::Span span(tracer, "runtime.session_ctor");
        session = spec_.make(/*use_replay=*/true);
      }
      std::vector<std::uint64_t> prefix;
      StepRecord rec;
      {
        Tracer::Span span(tracer, "runtime.record_step");
        rec = session->step();
      }
      w.setup_s.push_back(seconds_between(start, Clock::now()));
      prefix.push_back(rec.digest);
      for (int i = 0; i < kWarmSteps; ++i) {
        Tracer::Span span(tracer, "runtime.warm_step");
        rec = session->step();
        prefix.push_back(rec.digest);
      }
      status.attempted += 1 + kWarmSteps;

      // Everything the timed loop writes is sized here: the loop itself
      // must not allocate, or it would hide a zero-allocation replay path.
      std::vector<double> times(k_steps);
      std::vector<std::uint64_t> digests(k_steps);
      Counters c;
      const rt::StepStats warm = rec.stats;
      const NodeSnapshot before = snapshot(session->node());
      const std::uint64_t allocs_before = thread_allocs();
      for (std::size_t k = 0; k < k_steps; ++k) {
        const Clock::time_point t0 = Clock::now();
        {
          Tracer::Span span(tracer, "runtime.step");
          rec = session->step();
        }
        times[k] = seconds_between(t0, Clock::now()) * 1e3;
        digests[k] = rec.digest;
        c.events += rec.events;
        count_recovery(c, rec.stats);
      }
      const std::uint64_t allocs = thread_allocs() - allocs_before;
      status.attempted += k_steps;

      count_steps(c, before, snapshot(session->node()), warm, rec.stats);
      c.steps = k_steps;
      c.goodput = session->goodput();
      Digest d;
      for (const std::uint64_t digest : digests) d.add(digest);
      c.digest = d.value();

      for (std::size_t i = 0; prefix.size() < gate_.size() && i < k_steps;
           ++i) {
        prefix.push_back(digests[i]);
      }
      if (!gate_checked_) {
        check_gate(gate_, prefix, "gate", status);
        gate_checked_ = true;
        reference_digest_ = c.digest;
      } else {
        ++status.attempted;
        if (c.digest != reference_digest_) {
          status.fail("a point's steps differ from the first point's");
        }
      }

      double busy_ms = 0.0;
      for (const double ms : times) busy_ms += ms;
      w.busy_s.push_back(busy_ms / 1e3);
      w.step_ms.push_back(times);
      w.growth.push_back(growth(times));
      w.replayed_steps += k_steps;
      w.events += c.events;
      w.heap_allocs += allocs;
      if (first) w.counters = c;
      Tracer::Span span(tracer, "runtime.session_dtor");
      session.reset();
    } catch (const std::exception& e) {
      status.fail(e.what());
    }
    w.unit_s.push_back(seconds_between(start, Clock::now()));
  }

  SessionSpec spec_;
  std::vector<std::uint64_t> gate_;
  bool gate_checked_ = false;
  std::uint64_t reference_digest_ = 0;
};

/// Picks an entry of a fixed menu from the seed.
template <typename T>
const T& pick(const std::vector<T>& menu, std::uint64_t seed) {
  return menu[u::Xoshiro256(seed).uniform_int(menu.size())];
}

std::vector<ssdtrain::ckpt::CheckpointManifest::Shard> single_shard(
    const m::ModelConfig& model, int tp, int gpu) {
  // This GPU's fp16 weights plus the fp32 optimizer state (6x), as
  // TrainingSession checkpoints them.
  const u::Bytes weights = m::build_model(model)->parameter_bytes(tp);
  return {{gpu, 0, weights, 6 * weights}};
}

SessionSpec single_spec(rt::SessionConfig config, int timed_steps,
                        int gate_steps, std::optional<CrashPlan> crashes) {
  SessionSpec spec;
  spec.inputs = config.model.name + " H" + std::to_string(config.model.hidden) +
                " L" + std::to_string(config.model.layers) + " B" +
                std::to_string(config.model.micro_batch);
  spec.timed_steps = timed_steps;
  spec.gate_steps = gate_steps;
  spec.probe.node = config.node;
  spec.probe.gpu = config.gpu_index;
  spec.probe.shards = single_shard(
      config.model, config.parallel.tensor_parallel, config.gpu_index);
  spec.make = [config, crashes](bool use_replay) -> std::unique_ptr<Session> {
    rt::SessionConfig c = config;
    c.use_replay = use_replay;
    return std::make_unique<SingleSession>(std::move(c), crashes);
  };
  return spec;
}

int scaled(int steps, bool smoke) {
  return smoke ? std::max(2, steps / 50) : steps;
}

/// The paper's own system: SSDTrain offloading every step to the 4-drive
/// array, so the SSD model (FTL, RAID0), the offloader and the bandwidth
/// network's refills do most of the work.
SessionSpec offload_step(std::uint64_t seed, bool smoke) {
  const std::vector<m::ModelConfig> menu = {m::bert_config(4096, 4, 8),
                                            m::gpt_config(4096, 4, 8)};
  rt::SessionConfig config;
  config.model = pick(menu, seed);
  config.parallel.tensor_parallel = 2;
  config.strategy = rt::Strategy::ssdtrain;
  return single_spec(config, scaled(100, smoke), 6, std::nullopt);
}

/// The pure replay op loop and event core: nothing is offloaded, so an SSD
/// or offloader change must leave this workload alone.
SessionSpec keep_step(std::uint64_t seed, bool smoke) {
  const std::vector<m::ModelConfig> menu = {m::gpt_config(4096, 8, 4),
                                            m::bert_config(4096, 8, 4)};
  rt::SessionConfig config;
  config.model = pick(menu, seed);
  config.parallel.tensor_parallel = 2;
  config.strategy = rt::Strategy::keep_in_gpu;
  config.micro_batches = 4;
  return single_spec(config, scaled(20000, smoke), 6, std::nullopt);
}

/// Checkpoint commits and crash recovery beside activation offload: large
/// sequential shard writes and restore reads next to small extents.
SessionSpec ckpt_crash(std::uint64_t seed, bool smoke) {
  rt::SessionConfig config;
  config.model = m::bert_config(2048, 2, 4);
  config.parallel.tensor_parallel = 2;
  config.strategy = rt::Strategy::ssdtrain;
  config.micro_batches = 2;
  config.checkpoint.every_steps = 8;
  // Inert arming spec: trigger() needs an injector, and one with no active
  // window is byte-identical to none.
  f::FaultSpec arm;
  arm.kind = f::FaultKind::ssd_latency;
  arm.latency = 1e-9;
  arm.duration = 1e-9;
  config.faults.specs = {arm};
  config.faults.seed = seed;
  CrashPlan crashes;
  crashes.gpu = config.gpu_index;
  crashes.mtbf_steps = 40.0;
  // The first arrival lands 8 to 20 timed steps in, after the first
  // commit; golden-ratio offsets spread the seeds' phases evenly.
  crashes.offset_steps =
      12.0 * std::fmod(static_cast<double>(seed) * 0.6180339887498949, 1.0);
  crashes.first_step = 1 + kWarmSteps;
  // The gate's prefix reaches timed step 20, so it always holds the first
  // crash, its restore and the replayed steps after it.
  return single_spec(config, scaled(200, smoke), 1 + kWarmSteps + 21,
                     crashes);
}

/// Lane dispatch, boundary and DP flows, and per-stage replay of a 4-stage
/// pipeline, with no SSD traffic.
SessionSpec cluster_pp4(std::uint64_t seed, bool smoke) {
  const std::vector<m::ModelConfig> menu = {m::bert_config(2048, 8, 4),
                                            m::gpt_config(2048, 8, 4)};
  rt::ClusterConfig config;
  config.model = pick(menu, seed);
  config.parallel.tensor_parallel = 2;
  config.parallel.pipeline_parallel = 4;
  config.parallel.data_parallel = 2;
  config.parallel.zero = ssdtrain::parallel::ZeroStage::stage2;
  config.strategy = rt::Strategy::keep_in_gpu;
  config.micro_batches = 8;
  config.schedule = ssdtrain::sched::PipelineKind::one_f_one_b;

  SessionSpec spec;
  spec.inputs = config.model.name;
  spec.timed_steps = scaled(60, smoke);
  spec.gate_steps = 6;
  const int pp = config.parallel.pipeline_parallel;
  spec.probe.node = hw::catalog::cluster_node(pp, config.ssds_per_gpu);
  spec.probe.gpu = 0;
  const u::Bytes weights = m::build_model(config.model)->parameter_bytes(
                               config.parallel.tensor_parallel) /
                           pp;
  for (int stage = 0; stage < pp; ++stage) {
    spec.probe.shards.push_back(
        {stage, 0, weights, 6 * weights / config.parallel.data_parallel});
  }
  spec.make = [config](bool use_replay) -> std::unique_ptr<Session> {
    rt::ClusterConfig c = config;
    c.use_replay = use_replay;
    return std::make_unique<ClusterRun>(std::move(c));
  };
  return spec;
}

// -- figure-sweep --------------------------------------------------------------

struct GridPoint {
  std::string model;
  rt::Strategy strategy = rt::Strategy::keep_in_gpu;
  std::int64_t hidden = 0;
  std::int64_t batch = 0;
};

rt::SessionConfig point_config(const GridPoint& p) {
  rt::SessionConfig config;
  config.model = p.model == "bert" ? m::bert_config(p.hidden, 2, p.batch)
                 : p.model == "gpt" ? m::gpt_config(p.hidden, 2, p.batch)
                                    : m::t5_config(p.hidden, 2, p.batch);
  config.strategy = p.strategy;
  return config;
}

/// One point's outcome: its steps' results and timings.
struct PointResult {
  double setup_s = 0.0;
  double wall_s = 0.0;
  std::vector<double> step_ms;
  std::vector<std::uint64_t> digests;  ///< recording step, then replays
  Counters counters;
  std::uint64_t heap_allocs = 0;
};

/// Replayed steps per point after the recording step, as a paper-figure
/// bench measures them.
constexpr int kPointSteps = 3;

PointResult run_grid_point(const GridPoint& p, rt::ProgramCache* cache,
                           Tracer& tracer, std::uint32_t grid_span) {
  Tracer::Span point(tracer, "sweep.point", grid_span);
  PointResult r;
  const Clock::time_point start = Clock::now();
  rt::SessionConfig config = point_config(p);
  config.program_cache = cache;
  std::unique_ptr<SingleSession> session;
  {
    Tracer::Span span(tracer, "runtime.session_ctor");
    session = std::make_unique<SingleSession>(std::move(config), std::nullopt);
  }
  StepRecord rec;
  {
    Tracer::Span span(tracer, "runtime.record_step");
    rec = session->step();
  }
  r.setup_s = seconds_between(start, Clock::now());
  r.digests.push_back(rec.digest);

  r.step_ms.resize(kPointSteps);
  r.digests.resize(1 + kPointSteps);
  const rt::StepStats recorded = rec.stats;
  const NodeSnapshot before = snapshot(session->node());
  const std::uint64_t allocs_before = thread_allocs();
  for (int k = 0; k < kPointSteps; ++k) {
    const Clock::time_point t0 = Clock::now();
    {
      Tracer::Span span(tracer, "runtime.step");
      rec = session->step();
    }
    r.step_ms[static_cast<std::size_t>(k)] =
        seconds_between(t0, Clock::now()) * 1e3;
    r.digests[static_cast<std::size_t>(k) + 1] = rec.digest;
    r.counters.events += rec.events;
  }
  r.heap_allocs = thread_allocs() - allocs_before;
  count_steps(r.counters, before, snapshot(session->node()), recorded,
              rec.stats);
  r.counters.steps = kPointSteps;
  r.counters.goodput = session->goodput();
  Tracer::Span span(tracer, "runtime.session_dtor");
  session.reset();
  r.wall_s = seconds_between(start, Clock::now());
  return r;
}

/// A cold paper-figure grid — every point constructs a session, records and
/// replays a few steps — on two sweep workers sharing one in-memory program
/// cache. Set-up and tracing dominate, as in every figure sweep.
class SweepWorkload final : public Workload {
 public:
  SweepWorkload(std::uint64_t seed, bool smoke) : runner_(2) {
    const std::vector<std::string> models = {"bert", "gpt", "t5"};
    std::vector<rt::Strategy> strategies = {
        rt::Strategy::keep_in_gpu, rt::Strategy::ssdtrain,
        rt::Strategy::ssdtrain_cpu, rt::Strategy::recompute_full,
        rt::Strategy::ssdtrain_recompute};
    std::vector<std::int64_t> hiddens = {1024, 2048};
    std::vector<std::int64_t> batches = {2, 4};
    if (smoke) {
      strategies = {rt::Strategy::keep_in_gpu, rt::Strategy::ssdtrain};
      hiddens = {1024};
      batches = {2};
    }
    for (const std::string& model : models) {
      for (const rt::Strategy strategy : strategies) {
        for (const std::int64_t hidden : hiddens) {
          for (const std::int64_t batch : batches) {
            points_.push_back({model, strategy, hidden, batch});
          }
        }
      }
    }
    // The seed orders the grid (which points share a worker, and when)
    // and picks the gate's points; the set of points never changes.
    u::Xoshiro256 rng(seed);
    order_.resize(points_.size());
    for (std::size_t i = 0; i < order_.size(); ++i) order_[i] = i;
    for (std::size_t i = order_.size(); i > 1; --i) {
      std::swap(order_[i - 1], order_[rng.uniform_int(i)]);
    }
    const std::size_t per_model = points_.size() / models.size();
    for (std::size_t model = 0; model < models.size(); ++model) {
      gate_points_.push_back(model * per_model + rng.uniform_int(per_model));
    }
  }

  void prepare(Status& status) override {
    for (const std::size_t index : gate_points_) {
      std::vector<std::uint64_t> digests;
      try {
        rt::SessionConfig config = point_config(points_[index]);
        config.use_replay = false;
        SingleSession session(std::move(config), std::nullopt);
        for (int i = 0; i < 1 + kPointSteps; ++i) {
          ++status.attempted;
          digests.push_back(session.step().digest);
        }
      } catch (const std::exception& e) {
        status.fail(std::string("trace-path reference: ") + e.what());
      }
      gate_.push_back(std::move(digests));
    }
  }

  Window run_window(double budget_s, int min_units, Tracer& tracer,
                    Status& status) override {
    Window w;
    repeat_within(budget_s, min_units,
                  [&](bool first) { run_grid(w, first, tracer, status); });
    return w;
  }

  [[nodiscard]] ProbeInputs probe_inputs() const override {
    const rt::SessionConfig config = point_config(points_.back());
    ProbeInputs in;
    in.node = config.node;
    in.gpu = config.gpu_index;
    in.shards = single_shard(config.model, 1, config.gpu_index);
    return in;
  }

  [[nodiscard]] std::string inputs() const override {
    std::string out = std::to_string(points_.size()) + " points, first " +
                      std::to_string(order_.front()) + ", gate points";
    for (const std::size_t index : gate_points_) {
      out += " " + std::to_string(index);
    }
    return out;
  }

  void with_programs(
      const std::function<void(std::span<const rt::StepProgram* const>)>& fn,
      Status& status) override {
    if (cache_ == nullptr) {
      status.fail("program probe: no grid has run");
      return;
    }
    std::vector<std::shared_ptr<const rt::StepProgram>> held;
    std::vector<const rt::StepProgram*> programs;
    for (const GridPoint& p : points_) {
      auto program = cache_->lookup(rt::session_program_key(point_config(p)));
      if (program == nullptr) continue;
      programs.push_back(program.get());
      held.push_back(std::move(program));
    }
    fn(programs);
  }

  [[nodiscard]] int workers() const override {
    return static_cast<int>(runner_.worker_count());
  }

 private:
  void run_grid(Window& w, bool first, Tracer& tracer, Status& status) {
    // A fresh cache per grid keeps every grid cold: each point traces once.
    auto cache = std::make_unique<rt::ProgramCache>();
    std::vector<sweep::Outcome<PointResult>> outcomes;
    const Clock::time_point start = Clock::now();
    {
      Tracer::Span grid(tracer, "sweep.grid");
      const std::uint32_t grid_span = grid.id();
      rt::ProgramCache* shared = cache.get();
      outcomes = runner_.map(order_, [&](std::size_t index) {
        return run_grid_point(points_[index], shared, tracer, grid_span);
      });
    }
    w.unit_s.push_back(seconds_between(start, Clock::now()));

    // Outcomes come back in run order; fold them in grid order so the
    // digest does not depend on the seed's ordering.
    std::vector<const PointResult*> by_point(points_.size(), nullptr);
    for (std::size_t i = 0; i < outcomes.size(); ++i) {
      status.attempted += 1 + kPointSteps;
      if (!outcomes[i].ok()) {
        status.fail(points_[order_[i]].model + " point: " + outcomes[i].error);
        continue;
      }
      by_point[order_[i]] = &outcomes[i].get();
    }
    Counters c;
    Digest d;
    std::vector<double> point_ms;
    for (const PointResult* r : by_point) {
      if (r == nullptr) continue;
      const Counters& p = r->counters;
      c.steps += p.steps;
      c.events += p.events;
      c.filling_passes += p.filling_passes;
      c.flows_refilled += p.flows_refilled;
      c.host_pages += p.host_pages;
      c.media_pages += p.media_pages;
      c.gc_runs += p.gc_runs;
      c.packs += p.packs;
      c.offload_started += p.offload_started;
      c.forwards += p.forwards;
      c.wasted_stores += p.wasted_stores;
      c.stores += p.stores;
      c.loads += p.loads;
      c.bytes_stored += p.bytes_stored;
      c.goodput += p.goodput / static_cast<double>(points_.size());
      for (const std::uint64_t digest : r->digests) d.add(digest);

      point_ms.push_back(r->wall_s * 1e3);
      w.setup_s.push_back(r->setup_s);
      w.growth.push_back(growth(r->step_ms));
      w.replayed_steps += p.steps;
      w.events += p.events;
      w.heap_allocs += r->heap_allocs;
    }
    c.digest = d.value();
    if (point_ms.size() == points_.size()) {
      w.step_ms.push_back(point_ms);
      w.busy_s.push_back(w.unit_s.back());
    }
    const rt::ProgramCacheStats stats = cache->stats();
    c.cache_hits = stats.memory_hits + stats.disk_hits;
    c.cache_misses = stats.misses;

    if (!gate_checked_) {
      for (std::size_t g = 0; g < gate_points_.size(); ++g) {
        const PointResult* r = by_point[gate_points_[g]];
        check_gate(gate_[g], r != nullptr ? r->digests
                                          : std::vector<std::uint64_t>{},
                   "gate", status);
      }
      gate_checked_ = true;
      reference_digest_ = c.digest;
    } else {
      ++status.attempted;
      if (c.digest != reference_digest_) {
        status.fail("a grid's steps differ from the first grid's");
      }
    }
    if (first) w.counters = c;
    cache_ = std::move(cache);
  }

  sweep::SweepRunner runner_;
  std::vector<GridPoint> points_;
  std::vector<std::size_t> order_;
  std::vector<std::size_t> gate_points_;
  std::vector<std::vector<std::uint64_t>> gate_;
  bool gate_checked_ = false;
  std::uint64_t reference_digest_ = 0;
  std::unique_ptr<rt::ProgramCache> cache_;  ///< the last grid's
};

constexpr std::string_view kWorkloads[] = {
    "offload-step", "keep-step", "cluster-pp4", "ckpt-crash", "figure-sweep"};

}  // namespace

void Status::fail(const std::string& what) {
  ++failed;
  std::fprintf(stderr, "ssdtrain_perf: FAILED: %s\n", what.c_str());
}

void add_step_stats(Digest& d, const rt::StepStats& s) {
  d.add(s.step_time);
  d.add(s.drain_time);
  d.add(s.optimizer_time);
  d.add(static_cast<std::uint64_t>(s.activation_peak));
  d.add(static_cast<std::uint64_t>(s.total_peak));
  d.add(static_cast<std::uint64_t>(s.weights_live));
  d.add(s.algorithmic_flops);
  d.add(s.executed_flops);
  d.add(s.model_throughput);
  d.add(s.compute_busy);
  d.add(s.compute_utilization);
  d.add(static_cast<std::uint64_t>(s.offloaded_bytes));
  d.add(static_cast<std::uint64_t>(s.loaded_bytes));
  d.add(static_cast<std::uint64_t>(s.ssd_host_written));
  d.add(s.ssd_write_amplification);
  d.add(s.required_write_bandwidth);
  d.add(s.io_retries);
  d.add(s.io_failures);
  d.add(s.recompute_fallbacks);
  d.add(s.fault_stall_time);
  d.add(s.program_invalidations);
  d.add(s.checkpoint_time);
  d.add(static_cast<std::uint64_t>(s.checkpoint_bytes));
  d.add(s.restore_time);
  d.add(s.rollback_steps);
  d.add(s.lost_work_time);
  const ssdtrain::core::TensorCacheStats& c = s.cache;
  for (const std::uint64_t v :
       {c.packs, c.unpacks, c.passthrough_weight, c.passthrough_cpu,
        c.passthrough_small, c.dedup_hits, c.offload_started, c.kept_budget,
        c.kept_backward, c.kept_scope, c.kept_offloader_refused,
        c.kept_store_failed, c.forwards, c.prefetch_loads, c.miss_loads,
        c.wasted_stores, c.releases}) {
    d.add(v);
  }
  d.add(static_cast<std::uint64_t>(c.offloaded_bytes));
  d.add(static_cast<std::uint64_t>(c.kept_bytes));
  const ssdtrain::core::OffloaderStats& o = s.offloader_totals;
  for (const std::uint64_t v :
       {o.stores, o.loads, o.releases, o.failed_stores, o.io_retries,
        o.io_failures, o.store_faults, o.load_faults, o.recompute_fallbacks}) {
    d.add(v);
  }
  d.add(static_cast<std::uint64_t>(o.bytes_stored));
  d.add(static_cast<std::uint64_t>(o.bytes_loaded));
  d.add(o.retry_backoff_time);
  d.add(o.fault_extra_latency);
  d.add(o.recompute_fallback_time);
}

double percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = p / 100.0 * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(rank));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (values[hi] - values[lo]) * (rank - std::floor(rank));
}

std::span<const std::string_view> workload_names() { return kWorkloads; }

std::unique_ptr<Workload> make_workload(std::string_view name,
                                        std::uint64_t seed, bool smoke) {
  if (name == "offload-step") {
    return std::make_unique<SessionWorkload>(offload_step(seed, smoke));
  }
  if (name == "keep-step") {
    return std::make_unique<SessionWorkload>(keep_step(seed, smoke));
  }
  if (name == "cluster-pp4") {
    return std::make_unique<SessionWorkload>(cluster_pp4(seed, smoke));
  }
  if (name == "ckpt-crash") {
    return std::make_unique<SessionWorkload>(ckpt_crash(seed, smoke));
  }
  if (name == "figure-sweep") {
    return std::make_unique<SweepWorkload>(seed, smoke);
  }
  return nullptr;
}

}  // namespace perf
