#include "ssdtrain/ckpt/manifest.hpp"

#include <cstdint>
#include <cstring>

#include "ssdtrain/util/binary_io.hpp"

namespace ssdtrain::ckpt {

namespace {

using util::fnv1a;
using util::put_f64;
using util::put_u32;
using util::put_u64;
using util::put_u8;

constexpr char kMagic[8] = {'S', 'S', 'D', 'T', 'C', 'K', 'P', '\n'};
constexpr std::uint8_t kCommitMarker = 1;

bool fail(std::string* error, const char* reason) {
  if (error != nullptr) *error = reason;
  return false;
}

}  // namespace

util::Bytes CheckpointManifest::total_bytes() const {
  util::Bytes total = 0;
  for (const Shard& shard : shards) total += shard.bytes();
  return total;
}

util::Bytes CheckpointManifest::gpu_bytes(int gpu) const {
  util::Bytes total = 0;
  for (const Shard& shard : shards) {
    if (shard.gpu == gpu) total += shard.bytes();
  }
  return total;
}

std::string serialize_manifest(const CheckpointManifest& m) {
  std::string payload;
  put_u64(payload, m.sequence);
  put_u64(payload, m.step);
  put_f64(payload, m.sim_time);
  put_u32(payload, static_cast<std::uint32_t>(m.shards.size()));
  for (const CheckpointManifest::Shard& shard : m.shards) {
    put_u32(payload, static_cast<std::uint32_t>(shard.gpu));
    put_u32(payload, static_cast<std::uint32_t>(shard.chunk));
    put_u64(payload, static_cast<std::uint64_t>(shard.weight_bytes));
    put_u64(payload, static_cast<std::uint64_t>(shard.optimizer_bytes));
  }
  put_u8(payload, kCommitMarker);

  std::string out;
  out.append(kMagic, sizeof(kMagic));
  put_u32(out, kManifestFormatVersion);
  put_u64(out, fnv1a(payload));
  out += payload;
  return out;
}

bool deserialize_manifest(std::string_view data, CheckpointManifest& out,
                          std::string* error) {
  constexpr std::size_t kHeader = sizeof(kMagic) + 4 + 8;
  if (data.size() < kHeader) {
    return fail(error, "checkpoint manifest truncated before header");
  }
  if (std::memcmp(data.data(), kMagic, sizeof(kMagic)) != 0) {
    return fail(error, "not a checkpoint manifest (bad magic)");
  }
  util::ByteReader header(data.substr(sizeof(kMagic)));
  const std::uint32_t version = header.u32();
  if (version != kManifestFormatVersion) {
    return fail(error, "checkpoint manifest format version mismatch");
  }
  const std::uint64_t checksum = header.u64();
  const std::string_view payload = data.substr(kHeader);
  if (fnv1a(payload) != checksum) {
    return fail(error, "checkpoint manifest checksum mismatch (torn or "
                       "corrupt)");
  }

  util::ByteReader reader(payload);
  CheckpointManifest m;
  m.sequence = reader.u64();
  m.step = reader.u64();
  m.sim_time = reader.f64();
  const std::uint32_t shard_count = reader.u32();
  // Each shard is 24 bytes; an absurd count means a corrupt length field,
  // not a real manifest — reject before reserving memory for it.
  if (shard_count > (1u << 20)) {
    return fail(error, "checkpoint manifest shard count implausible");
  }
  m.shards.reserve(shard_count);
  for (std::uint32_t i = 0; i < shard_count; ++i) {
    CheckpointManifest::Shard shard;
    shard.gpu = static_cast<int>(reader.u32());
    shard.chunk = static_cast<int>(reader.u32());
    shard.weight_bytes = static_cast<util::Bytes>(reader.u64());
    shard.optimizer_bytes = static_cast<util::Bytes>(reader.u64());
    m.shards.push_back(shard);
  }
  const std::uint8_t marker = reader.u8();
  if (reader.failed()) {
    return fail(error, "checkpoint manifest truncated mid-payload");
  }
  if (marker != kCommitMarker) {
    return fail(error, "checkpoint manifest commit marker missing (torn "
                       "shadow write)");
  }
  if (!reader.exhausted()) {
    return fail(error, "checkpoint manifest has trailing bytes");
  }
  out = std::move(m);
  return true;
}

}  // namespace ssdtrain::ckpt
