#include "ssdtrain/ckpt/writer.hpp"

#include <algorithm>
#include <utility>

#include "ssdtrain/util/check.hpp"
#include "ssdtrain/util/label.hpp"

namespace ssdtrain::ckpt {

namespace {

/// Two generations on disk: the newest plus the fallback a torn flip leaves
/// behind. The grandparent's extents are released at commit time, so a run
/// with checkpointing holds at most 2x the snapshot footprint.
constexpr std::size_t kRetainedGenerations = 2;

}  // namespace

CheckpointWriter::CheckpointWriter(hw::TrainingNode& node, bool use_gds)
    : node_(node), use_gds_(use_gds) {}

CheckpointWriter::~CheckpointWriter() {
  // Extents free into the arrays, which outlive the writer (sessions own
  // the node); release explicitly so live_bytes() drops back.
  for (Committed& gen : committed_) release_generation(gen);
}

void CheckpointWriter::add_stage(int gpu, int chunk,
                                 util::Bytes weight_bytes,
                                 util::Bytes optimizer_bytes) {
  util::expects(gpu >= 0 && gpu < node_.gpu_count(),
                "checkpoint stage GPU out of range");
  util::expects(node_.has_array(gpu),
                "checkpointing targets the offload SSDs, but GPU " +
                    std::to_string(gpu) + " has no SSD array");
  util::expects(weight_bytes > 0, "checkpoint stage needs weight bytes");
  util::expects(optimizer_bytes >= 0,
                "checkpoint optimizer bytes must be >= 0");
  stages_.push_back(Stage{gpu, chunk, weight_bytes, optimizer_bytes});
}

CheckpointCommit CheckpointWriter::write(std::uint64_t step) {
  util::expects(!stages_.empty(),
                "checkpoint writer has no stages registered");
  auto& sim = node_.simulator();
  const sim::TimePoint start = sim.now();

  // Phase 1: shadow-write every shard to fresh extents. The previous
  // checkpoint stays fully intact until the flip below.
  Committed gen;
  gen.step = step;
  gen.extents.reserve(stages_.size());
  std::size_t inflight = 0;
  for (const Stage& stage : stages_) {
    auto& array = node_.array(stage.gpu);
    hw::ArrayExtent extent = array.allocate_extent(stage.bytes());
    array.record_write(extent);
    gen.extents.push_back(std::move(extent));
    ++inflight;
    node_.network().start_flow(
        util::Label("ckpt-write"), stage.bytes(),
        use_gds_ ? node_.gds_write_path(stage.gpu)
                 : node_.bounce_write_path(stage.gpu),
        [&inflight] { --inflight; });
  }
  sim.run();
  util::check(inflight == 0, "checkpoint bulk flows failed to drain");

  // Phase 2: the flip. Only now — after every bulk byte landed — does the
  // manifest go out; a crash before this instant leaves the previous
  // generation as the newest committed checkpoint.
  CheckpointManifest manifest;
  manifest.sequence = ++sequence_;
  manifest.step = step;
  for (const Stage& stage : stages_) {
    manifest.shards.push_back(CheckpointManifest::Shard{
        stage.gpu, stage.chunk, stage.weight_bytes, stage.optimizer_bytes});
  }
  manifest.sim_time = sim.now();
  std::string blob = serialize_manifest(manifest);
  gen.manifest_gpu = stages_.front().gpu;
  auto& manifest_array = node_.array(gen.manifest_gpu);
  gen.manifest_extent =
      manifest_array.allocate_extent(static_cast<util::Bytes>(blob.size()));
  manifest_array.record_write(gen.manifest_extent);
  bool flipped = false;
  node_.network().start_flow(
      util::Label("ckpt-manifest"), static_cast<util::Bytes>(blob.size()),
      use_gds_ ? node_.gds_write_path(gen.manifest_gpu)
               : node_.bounce_write_path(gen.manifest_gpu),
      [&flipped] { flipped = true; });
  sim.run();
  util::check(flipped, "checkpoint manifest flow failed to drain");

  gen.blob = std::move(blob);
  gen.committed_at = sim.now();
  const util::Bytes bulk = manifest.total_bytes();
  const auto total =
      bulk + static_cast<util::Bytes>(gen.blob.size());
  bytes_written_ += total;

  committed_.push_back(std::move(gen));
  // Phase 3: evict the grandparent — its extents only became safe to reuse
  // once this commit's manifest landed.
  while (committed_.size() > kRetainedGenerations) {
    release_generation(committed_.front());
    committed_.erase(committed_.begin());
  }

  return CheckpointCommit{manifest.sequence, step, sim.now() - start, total,
                          gen.committed_at};
}

RestoreResult CheckpointWriter::restore(const std::vector<int>& gpus) {
  RestoreResult result;
  auto& sim = node_.simulator();
  const sim::TimePoint start = sim.now();

  // Walk newest-first; a torn or corrupted blob is skipped exactly the way
  // a restarting trainer would skip it — fall back to the one before.
  const Committed* chosen = nullptr;
  CheckpointManifest manifest;
  for (auto it = committed_.rbegin(); it != committed_.rend(); ++it) {
    if (deserialize_manifest(it->blob, manifest)) {
      chosen = &*it;
      break;
    }
    ++result.manifests_rejected;
  }
  if (chosen == nullptr) {
    // Nothing committed (or everything torn): cold restart from step 0.
    return result;
  }

  std::size_t inflight = 0;
  util::Bytes bytes = 0;
  for (std::size_t i = 0; i < manifest.shards.size(); ++i) {
    const CheckpointManifest::Shard& shard = manifest.shards[i];
    if (std::find(gpus.begin(), gpus.end(), shard.gpu) == gpus.end()) {
      continue;
    }
    if (i < chosen->extents.size() &&
        !chosen->extents[i].member_extents.empty()) {
      node_.array(shard.gpu).record_read(chosen->extents[i]);
    }
    bytes += shard.bytes();
    ++inflight;
    node_.network().start_flow(
        util::Label("ckpt-restore"), shard.bytes(),
        use_gds_ ? node_.gds_read_path(shard.gpu)
                 : node_.bounce_read_path(shard.gpu),
        [&inflight] { --inflight; });
  }
  sim.run();
  util::check(inflight == 0, "checkpoint restore flows failed to drain");

  result.restored = true;
  result.sequence = manifest.sequence;
  result.step = manifest.step;
  result.time = sim.now() - start;
  result.bytes = bytes;
  return result;
}

std::uint64_t CheckpointWriter::last_commit_step() const {
  for (auto it = committed_.rbegin(); it != committed_.rend(); ++it) {
    CheckpointManifest manifest;
    if (deserialize_manifest(it->blob, manifest)) return manifest.step;
  }
  return 0;
}

sim::TimePoint CheckpointWriter::last_commit_time() const {
  for (auto it = committed_.rbegin(); it != committed_.rend(); ++it) {
    CheckpointManifest manifest;
    if (deserialize_manifest(it->blob, manifest)) return it->committed_at;
  }
  return 0.0;
}

void CheckpointWriter::corrupt_committed(std::size_t newest_offset) {
  util::expects(newest_offset < committed_.size(),
                "corrupt_committed: no such committed checkpoint");
  Committed& gen = committed_[committed_.size() - 1 - newest_offset];
  util::expects(!gen.blob.empty(), "corrupt_committed: empty blob");
  // Flip a payload byte (past the header) so the checksum check trips —
  // the torn-shadow-region failure mode.
  gen.blob[gen.blob.size() - 1] ^= 0x40;
}

void CheckpointWriter::release_generation(Committed& gen) {
  for (std::size_t i = 0; i < gen.extents.size(); ++i) {
    if (gen.extents[i].member_extents.empty()) continue;
    node_.array(stages_[i].gpu).release_extent(gen.extents[i]);
    gen.extents[i] = hw::ArrayExtent{};
  }
  if (gen.manifest_gpu >= 0 &&
      !gen.manifest_extent.member_extents.empty()) {
    node_.array(gen.manifest_gpu).release_extent(gen.manifest_extent);
    gen.manifest_extent = hw::ArrayExtent{};
  }
}

}  // namespace ssdtrain::ckpt
