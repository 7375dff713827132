#pragma once

/// \file cli.hpp
/// Shared command-line parsing for the sweep-driven bench and example
/// binaries. parse_cli accepts every flag below; sweep::BenchMain
/// (bench_main.hpp) applies them. A binary whose grid shape cannot honour a
/// flag rejects it by name at startup instead of dropping it: only the
/// streamed binaries (bench_moe_offload, bench_cluster_scale,
/// bench_resilience, bench_checkpoint, example_pipeline_bubbles) take
/// --points/--shard/--chaos-exec, and the analytic benches (bench_fig1_trends,
/// bench_fig5_lifespan, bench_fig8b_upscale) build no session and reject the
/// session flags (--no-replay through --no-program-cache below, apart from
/// --shard). The microbenches bench_sim_core, bench_step_replay and
/// bench_program_cache call parse_cli themselves.
///   --workers N         worker threads for the SweepRunner (default: all
///                       cores)
///   --csv PATH          dump the sweep's data series as CSV via
///                       util::CsvWriter; when PATH already holds rows from
///                       an earlier run, the streamed binaries skip the
///                       completed points and append only the missing ones
///                       (the others rewrite the file)
///   --points a=1,b=2    run only the grid cells whose coordinates match
///                       every listed axis=value pair (repeatable; values
///                       compare by their axis to_string form)
///   --point-timeout S   wall-clock budget per sweep point in seconds;
///                       over-budget points are recorded as errors instead
///                       of hanging the batch (0 = no timeout)
///   --retries N         re-run a throwing point up to N extra times
///   --no-replay         force the legacy trace-every-step execution path
///                       (step record/replay is on by default; this flag is
///                       the A/B switch — results are bit-identical)
///   --pp N / --tp N / --dp N
///                       override the pipeline / tensor / data parallelism
///                       of every session the bench builds (unset = the
///                       bench's own defaults, so golden CSVs reproduce
///                       bit-for-bit without the flags). --pp > 1 needs a
///                       ClusterSession binary (bench_cluster_scale,
///                       bench_resilience, example_pipeline_bubbles): a
///                       TrainingSession runs the whole model on one GPU
///                       and rejects it, so every point of the other
///                       benches fails with that error
///   --zero none|1|2|3   override the ZeRO stage the same way
///   --faults SPECS      seeded fault injection: a semicolon-separated
///                       FaultSpec list applied to every session the bench
///                       builds; unset = no injector, byte-identical output.
///                       Full grammar (fault::parse_faults):
///                         kind[:key=value[,key=value...]][;kind...]
///                       kinds: ssd-latency (needs latency=SECONDS),
///                       ssd-derate / pcie-derate / nvlink-derate /
///                       dp-derate (factor in (0,1]), gpu-straggler
///                       (factor >= 1), io-error (rate in (0,1]),
///                       ssd-dropout (member=I), stage-crash (needs
///                       dur=SECONDS)
///                       common keys: gpu=G (-1 = all, the default),
///                       at=SECONDS, dur=SECONDS
///                       stage-crash only: lose=none|state (state wipes
///                       the stage's device state — needs a checkpoint
///                       policy to recover), recover=resume|rollback
///                       (implied by lose; resume+lose=state and
///                       rollback+lose=none are rejected)
///   --fault-seed N      seed for the injector's RNG (default 0; a nonzero
///                       seed also reseeds a bench's own fault specs);
///                       identical seeds reproduce bit-identical fault runs
///   --ckpt-interval N   crash-consistent checkpoint to the offload SSDs
///                       every N completed steps (shadow write + atomic
///                       manifest flip; flows contend with activation
///                       offload and age the NAND). Unset = no
///                       checkpointing, byte-identical output
///   --ckpt-auto         Young–Daly auto cadence: the first boundary
///                       commits to measure the checkpoint cost C, then
///                       the interval is sqrt(2*C*MTBF). Requires --mtbf
///   --mtbf SECONDS      mean time between failures assumed by --ckpt-auto
///                       (only valid with it)
///   --shard I/N         run only this process's 1/N slice of the grid:
///                       after --points filtering, position j of the
///                       selection belongs to shard j mod N. Shards are
///                       independent OS processes; tools/sweep_merge
///                       reassembles their CSVs into the canonical
///                       single-process row order, byte-identically
///   --program-cache DIR persistent StepProgram store shared across
///                       processes: sessions consult DIR before tracing and
///                       publish new recordings there (atomic
///                       rename-on-write), so sibling shards and later runs
///                       skip the trace step of any configuration already
///                       seen
///   --no-program-cache  disable the in-process program cache the benches
///                       share across their sweep points by default (the
///                       A/B switch for cold-trace comparisons; results are
///                       bit-identical either way; contradicts
///                       --program-cache)
///   --chaos-exec SPEC   self-inflicted chaos for orchestrator testing
///                       (sweep::ChaosExec grammar: "kill:after=N[,tear=1]"
///                       or "stall:after=N"): streamed binaries, which commit
///                       their CSV rows through sweep::CsvProgress (so it
///                       needs --csv), SIGKILL/SIGSTOP themselves after
///                       committing N rows. Normally
///                       injected by sweep_orchestrate's seeded --chaos
///                       engine (grammar: "kind:rate=P[,after=N][,tear=1]
///                       [,kind:rate=P...]" with kinds kill|stall, seeded
///                       by --chaos-seed), not typed by hand
/// plus its own positional arguments, which are passed through untouched.

#include <cstddef>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "ssdtrain/ckpt/policy.hpp"
#include "ssdtrain/fault/fault.hpp"
#include "ssdtrain/parallel/parallel_config.hpp"
#include "ssdtrain/sweep/runner.hpp"
#include "ssdtrain/sweep/spec.hpp"

namespace ssdtrain::sweep {

struct CliOptions {
  std::size_t workers = 0;  ///< 0 = one worker per hardware thread
  std::string csv_path;     ///< empty = no CSV output
  double point_timeout = 0.0;  ///< seconds; 0 = no per-point timeout
  int retries = 0;             ///< extra attempts for throwing points
  bool no_replay = false;      ///< force the trace path in every session
  /// --points constraints, in order of appearance.
  std::vector<std::pair<std::string, std::string>> point_filter;
  std::vector<std::string> positional;
  // --pp/--tp/--dp/--zero parallelism overrides; 0 / nullopt = unset.
  int pipeline_parallel = 0;
  int tensor_parallel = 0;
  int data_parallel = 0;
  std::optional<parallel::ZeroStage> zero;
  /// --faults spec text (empty = injection disabled) and --fault-seed.
  std::string faults;
  std::uint64_t fault_seed = 0;
  /// --ckpt-interval / --ckpt-auto / --mtbf checkpoint cadence; all unset
  /// by default (no checkpointing — golden CSVs reproduce bit-for-bit).
  int ckpt_interval = 0;
  bool ckpt_auto = false;
  double mtbf = 0.0;
  /// --shard I/N slice of the (filtered) grid this process runs.
  int shard_index = 0;
  int shard_count = 1;
  /// --program-cache directory (empty = in-process tier only) and the
  /// --no-program-cache kill switch.
  std::string program_cache_dir;
  bool no_program_cache = false;
  /// --chaos-exec spec text ("" = disabled); parsed eagerly at startup.
  std::string chaos_exec;

  [[nodiscard]] bool csv_enabled() const { return !csv_path.empty(); }
  [[nodiscard]] bool sharded() const { return shard_count > 1; }
  /// Benches wire a shared ProgramCache into every session unless the
  /// cold-trace A/B switch is on.
  [[nodiscard]] bool program_cache_enabled() const {
    return !no_program_cache;
  }
  [[nodiscard]] bool faults_enabled() const { return !faults.empty(); }
  [[nodiscard]] bool checkpoint_enabled() const {
    return ckpt_interval > 0 || ckpt_auto;
  }

  /// Parsed --faults/--fault-seed as the config sessions take. Parse errors
  /// in the spec text are contract violations (reported at startup, not
  /// mid-sweep).
  [[nodiscard]] fault::FaultConfig fault_config() const {
    fault::FaultConfig config;
    config.specs = fault::parse_faults(faults);
    config.seed = fault_seed;
    return config;
  }

  /// Parsed --ckpt-interval/--ckpt-auto/--mtbf as the policy sessions
  /// take (disabled when neither cadence flag was given). validate()
  /// rejects contradictory combinations at startup.
  [[nodiscard]] ckpt::CheckpointPolicy checkpoint_policy() const {
    ckpt::CheckpointPolicy policy;
    policy.every_steps = ckpt_interval;
    policy.auto_interval = ckpt_auto;
    policy.mtbf = mtbf;
    policy.validate();
    return policy;
  }

  [[nodiscard]] bool points_enabled() const { return !point_filter.empty(); }
  [[nodiscard]] bool parallel_overridden() const {
    return pipeline_parallel > 0 || tensor_parallel > 0 ||
           data_parallel > 0 || zero.has_value();
  }

  /// Overwrites only the axes set on the command line, leaving the bench's
  /// defaults in place otherwise (the golden-CSV compatibility contract).
  void apply_parallel(parallel::ParallelConfig& parallel) const {
    if (pipeline_parallel > 0) parallel.pipeline_parallel = pipeline_parallel;
    if (tensor_parallel > 0) parallel.tensor_parallel = tensor_parallel;
    if (data_parallel > 0) parallel.data_parallel = data_parallel;
    if (zero) parallel.zero = *zero;
  }

  /// The per-point policy for SweepRunner::map/run.
  [[nodiscard]] MapOptions map_options() const {
    return MapOptions{point_timeout, retries};
  }
};

/// Parses argv. Unknown "--flag" arguments are contract violations;
/// anything else lands in `positional` in order.
CliOptions parse_cli(int argc, char** argv);

/// True when \p point satisfies every --points constraint (vacuously true
/// without --points). Constraint keys must name axes of the point.
bool matches_point_filter(const CliOptions& options, const SweepPoint& point);

/// The spec's grid restricted to the --points selection (whole grid when no
/// --points was given), then to this process's --shard slice: position j of
/// the selection belongs to shard j mod shard_count, preserving order.
/// Constraint keys are validated against the spec's axis names, and an
/// empty --points selection is a contract violation (the requested cell
/// does not exist); an empty *shard* of a non-empty selection is fine (more
/// shards than points).
std::vector<SweepPoint> select_points(const SweepSpec& spec,
                                      const CliOptions& options);

}  // namespace ssdtrain::sweep
