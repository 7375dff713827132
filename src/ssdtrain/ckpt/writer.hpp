#pragma once

/// \file writer.hpp
/// CheckpointWriter snapshots the training state (per-stage weights +
/// optimizer/ZeRO shards) onto the same SSD arrays that hold offloaded
/// activations, as real flows on the shared BandwidthNetwork — a checkpoint
/// contends with activation offload for PCIe and SSD channel bandwidth, and
/// every byte goes through Raid0Array::record_write, so checkpoints age the
/// NAND and show up in the endurance report.
///
/// Commits are crash-consistent by construction (shadow write + atomic
/// manifest flip):
///   1. bulk shards are written to freshly allocated extents — the previous
///      checkpoint's extents stay untouched;
///   2. only after every bulk flow has drained is the manifest flowed out
///      and appended to the committed list (the flip);
///   3. the grandparent checkpoint's extents are released last.
/// A crash at any instant before the flip leaves the previous manifest as
/// the newest committed one; a torn or corrupted blob is rejected by
/// deserialize_manifest and restore() falls back to the one before it.

#include <cstdint>
#include <string>
#include <vector>

#include "ssdtrain/ckpt/manifest.hpp"
#include "ssdtrain/hw/node.hpp"
#include "ssdtrain/sim/simulator.hpp"
#include "ssdtrain/util/units.hpp"

namespace ssdtrain::ckpt {

/// Result of one committed checkpoint.
struct CheckpointCommit {
  std::uint64_t sequence = 0;
  std::uint64_t step = 0;
  util::Seconds time = 0.0;       ///< write + flip duration (quiesced)
  util::Bytes bytes = 0;          ///< bulk shards + manifest blob
  sim::TimePoint committed_at = 0.0;
};

/// Result of a restore attempt. `restored == false` with `step == 0` means
/// no committed checkpoint survived — the session cold-restarts from step 0.
struct RestoreResult {
  bool restored = false;
  std::uint64_t sequence = 0;
  std::uint64_t step = 0;         ///< step to roll back to
  util::Seconds time = 0.0;
  util::Bytes bytes = 0;
  int manifests_rejected = 0;     ///< torn/corrupt blobs skipped on the walk
};

class CheckpointWriter {
 public:
  /// \p use_gds selects the transfer route: GDS (GPU -> PCIe -> SSD) or the
  /// bounce path through host DRAM — the same choice the offloader makes.
  CheckpointWriter(hw::TrainingNode& node, bool use_gds);
  CheckpointWriter(const CheckpointWriter&) = delete;
  CheckpointWriter& operator=(const CheckpointWriter&) = delete;
  ~CheckpointWriter();

  /// Registers one stage's shard. The GPU must have an SSD array (the
  /// checkpoint target is the offload SSD). Call once per (gpu, chunk)
  /// before the first write().
  void add_stage(int gpu, int chunk, util::Bytes weight_bytes,
                 util::Bytes optimizer_bytes);

  [[nodiscard]] std::size_t stage_count() const { return stages_.size(); }

  /// Writes and commits one checkpoint of training step \p step. Quiesced:
  /// drives the simulator until every flow (bulk shards, then the manifest)
  /// has drained, so the returned time is the full contended cost.
  CheckpointCommit write(std::uint64_t step);

  /// Restores the newest committed checkpoint onto \p gpus (normally every
  /// stage GPU — surviving stages must roll back too, since optimizer steps
  /// cannot be un-applied). Walks the committed list newest-first and skips
  /// blobs deserialize_manifest rejects. Quiesced like write().
  RestoreResult restore(const std::vector<int>& gpus);

  [[nodiscard]] std::uint64_t committed_count() const { return sequence_; }
  [[nodiscard]] util::Bytes bytes_written() const { return bytes_written_; }
  [[nodiscard]] std::size_t committed_manifests() const {
    return committed_.size();
  }
  /// Step captured by the newest *valid* committed checkpoint (0 if none).
  [[nodiscard]] std::uint64_t last_commit_step() const;
  /// Commit instant of the newest committed checkpoint (0 if none).
  [[nodiscard]] sim::TimePoint last_commit_time() const;

  /// Test hook: flips one byte in the committed blob \p newest_offset
  /// generations back from the newest (0 = newest), simulating a torn or
  /// corrupted manifest that restore() must reject and fall back past.
  void corrupt_committed(std::size_t newest_offset);

 private:
  struct Stage {
    int gpu = 0;
    int chunk = 0;
    util::Bytes weight_bytes = 0;
    util::Bytes optimizer_bytes = 0;
    [[nodiscard]] util::Bytes bytes() const {
      return weight_bytes + optimizer_bytes;
    }
  };

  /// One committed generation: the serialized manifest plus the on-SSD
  /// extents backing it (index-aligned with stages_; empty once evicted).
  struct Committed {
    std::string blob;
    std::vector<hw::ArrayExtent> extents;
    hw::ArrayExtent manifest_extent;
    int manifest_gpu = -1;
    std::uint64_t step = 0;
    sim::TimePoint committed_at = 0.0;
  };

  void release_generation(Committed& gen);

  hw::TrainingNode& node_;
  bool use_gds_ = false;
  std::vector<Stage> stages_;
  std::vector<Committed> committed_;  ///< oldest first; newest at the back
  std::uint64_t sequence_ = 0;
  util::Bytes bytes_written_ = 0;
};

}  // namespace ssdtrain::ckpt
