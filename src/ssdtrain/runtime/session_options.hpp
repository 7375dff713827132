#pragma once

/// \file session_options.hpp
/// The activation-placement strategy and the options every session type
/// shares. SessionConfig (TrainingSession) and ClusterConfig
/// (ClusterSession) both inherit SessionOptions and add only their own
/// placement fields; StageRuntime and RecoveryLedger read SessionOptions,
/// so both sessions apply each shared option the same way.

#include <optional>
#include <string_view>

#include "ssdtrain/ckpt/policy.hpp"
#include "ssdtrain/core/offloader.hpp"
#include "ssdtrain/fault/fault.hpp"
#include "ssdtrain/modules/model.hpp"
#include "ssdtrain/parallel/parallel_config.hpp"
#include "ssdtrain/util/units.hpp"

namespace ssdtrain::runtime {

class ProgramCache;  // program_cache.hpp

/// Activation-placement strategy (the three corners of the paper's
/// recompute-offload-keep design space, plus the CPU-offload variant).
enum class Strategy {
  keep_in_gpu,      ///< baseline: everything stays in device memory
  ssdtrain,         ///< offload to NVMe via GDS (the paper's system)
  ssdtrain_cpu,     ///< offload to pinned host memory (CPU offloader)
  recompute_full,   ///< layerwise full recomputation baseline
  /// Hybrid: activation checkpointing whose checkpoints are themselves
  /// offloaded to SSD, with rematerialised tensors kept in GPU memory by
  /// Alg. 1's in-backward branch — the minimum-memory corner of the ROK
  /// space and the interoperability case the paper's Alg. 1 line 5 covers.
  ssdtrain_recompute,
};

std::string_view to_string(Strategy strategy);

/// Inverse of to_string; unknown names are contract violations. Used by
/// the sweep-driven benches, whose string strategy axes round-trip here.
Strategy strategy_from(std::string_view name);

/// Saved activations leave the GPU through a tensor cache and offloader.
[[nodiscard]] constexpr bool offloads(Strategy strategy) {
  return strategy == Strategy::ssdtrain || strategy == Strategy::ssdtrain_cpu ||
         strategy == Strategy::ssdtrain_recompute;
}

/// The offload target is the GPU's SSD array (not pinned host memory).
[[nodiscard]] constexpr bool offloads_to_ssd(Strategy strategy) {
  return strategy == Strategy::ssdtrain ||
         strategy == Strategy::ssdtrain_recompute;
}

/// The executor rematerialises activations layer by layer in backward.
[[nodiscard]] constexpr bool recomputes(Strategy strategy) {
  return strategy == Strategy::recompute_full ||
         strategy == Strategy::ssdtrain_recompute;
}

/// The options TrainingSession and ClusterSession share. A cluster applies
/// the SSDTrain knobs to every stage.
struct SessionOptions {
  modules::ModelConfig model;
  parallel::ParallelConfig parallel;
  Strategy strategy = Strategy::ssdtrain;
  int micro_batches = 1;  ///< gradient-accumulation count

  /// Step-graph record/replay (on by default): a stage traces its first
  /// step through the module tree while recording a StepProgram; every
  /// later step replays the flattened program, bit-identically and much
  /// faster. Disable (--no-replay in the benches) to force the legacy trace
  /// path on every step for A/B comparison.
  bool use_replay = true;

  /// Optional shared program cache (requires use_replay). When set, each
  /// stage looks its configuration fingerprint up before tracing — a hit
  /// (from this process or a cache directory another process populated)
  /// replays from step 0 and never traces — and publishes its own recording
  /// on a miss. Once a structural fault fires the session stops consulting
  /// and feeding the cache (the degraded machine is not part of the key).
  /// Not owned; must outlive the session.
  ProgramCache* program_cache = nullptr;

  // SSDTrain knobs (ablations):
  bool use_gds = true;
  bool forwarding = true;
  int prefetch_lookahead = 1;
  bool install_malloc_hook = true;
  int store_workers = 2;
  int load_workers = 2;
  /// Overrides the planner's offload budget when set.
  std::optional<util::Bytes> budget_override;

  /// Seeded fault injection (empty spec list = disabled; the no-fault path
  /// is byte-identical to a session without the fault layer).
  fault::FaultConfig faults;
  /// Offload retry/backoff knobs; the injector pointer is filled in by the
  /// session.
  core::OffloadFaultPolicy fault_policy;

  /// Crash-consistent checkpointing to the offload SSDs (disabled by
  /// default — the zero-overhead path is byte-identical to a session
  /// without the checkpoint layer). Required before any stage-crash fault
  /// with lose=state: a destructive crash is only recoverable from a
  /// committed checkpoint.
  ckpt::CheckpointPolicy checkpoint;
};

}  // namespace ssdtrain::runtime
