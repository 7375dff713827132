// Serialized StepProgram + ProgramCache: the on-disk round trip must be
// exact (byte-stable re-serialization, bit-identical replay of a
// deserialized program in a *fresh* session that never traced), the cache
// key must separate every trace-shaping configuration, and corrupt /
// wrong-version / wrong-fingerprint cache files must degrade to misses
// (re-trace), never to wrong programs.

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "ssdtrain/modules/model.hpp"
#include "ssdtrain/runtime/cluster_session.hpp"
#include "ssdtrain/runtime/program_cache.hpp"
#include "ssdtrain/runtime/program_serdes.hpp"
#include "ssdtrain/runtime/session.hpp"
#include "ssdtrain/sched/schedule.hpp"
#include "ssdtrain/util/units.hpp"

namespace fs = std::filesystem;
namespace m = ssdtrain::modules;
namespace rt = ssdtrain::runtime;
namespace sched = ssdtrain::sched;

namespace {

constexpr int kSteps = 3;

struct TempDir {
  std::string path;
  explicit TempDir(const std::string& name)
      : path(::testing::TempDir() + name) {
    fs::remove_all(path);
    fs::create_directories(path);
  }
  ~TempDir() { fs::remove_all(path); }
};

rt::SessionConfig small_config(m::ModelConfig model, rt::Strategy strategy) {
  rt::SessionConfig config;
  config.model = std::move(model);
  config.parallel.tensor_parallel = 2;
  config.strategy = strategy;
  return config;
}

void expect_equal(const rt::StepStats& a, const rt::StepStats& b,
                  const std::string& what) {
  SCOPED_TRACE(what);
  EXPECT_EQ(a.step_time, b.step_time);
  EXPECT_EQ(a.drain_time, b.drain_time);
  EXPECT_EQ(a.optimizer_time, b.optimizer_time);
  EXPECT_EQ(a.activation_peak, b.activation_peak);
  EXPECT_EQ(a.total_peak, b.total_peak);
  EXPECT_EQ(a.weights_live, b.weights_live);
  EXPECT_EQ(a.algorithmic_flops, b.algorithmic_flops);
  EXPECT_EQ(a.executed_flops, b.executed_flops);
  EXPECT_EQ(a.model_throughput, b.model_throughput);
  EXPECT_EQ(a.compute_busy, b.compute_busy);
  EXPECT_EQ(a.compute_utilization, b.compute_utilization);
  EXPECT_EQ(a.offloaded_bytes, b.offloaded_bytes);
  EXPECT_EQ(a.loaded_bytes, b.loaded_bytes);
  EXPECT_EQ(a.ssd_host_written, b.ssd_host_written);
  EXPECT_EQ(a.ssd_write_amplification, b.ssd_write_amplification);
  EXPECT_EQ(a.required_write_bandwidth, b.required_write_bandwidth);
  EXPECT_EQ(a.cache.packs, b.cache.packs);
  EXPECT_EQ(a.cache.unpacks, b.cache.unpacks);
  EXPECT_EQ(a.cache.dedup_hits, b.cache.dedup_hits);
  EXPECT_EQ(a.cache.offload_started, b.cache.offload_started);
  EXPECT_EQ(a.cache.forwards, b.cache.forwards);
  EXPECT_EQ(a.cache.prefetch_loads, b.cache.prefetch_loads);
  EXPECT_EQ(a.cache.miss_loads, b.cache.miss_loads);
  EXPECT_EQ(a.cache.releases, b.cache.releases);
  EXPECT_EQ(a.cache.offloaded_bytes, b.cache.offloaded_bytes);
  EXPECT_EQ(a.cache.kept_bytes, b.cache.kept_bytes);
  EXPECT_EQ(a.offloader_totals.stores, b.offloader_totals.stores);
  EXPECT_EQ(a.offloader_totals.loads, b.offloader_totals.loads);
  EXPECT_EQ(a.offloader_totals.bytes_stored, b.offloader_totals.bytes_stored);
  EXPECT_EQ(a.offloader_totals.bytes_loaded, b.offloader_totals.bytes_loaded);
}

std::vector<m::ModelConfig> model_grid() {
  return {
      m::bert_config(2048, 2, 2),
      m::gpt_config(2048, 2, 2),
      m::t5_config(2048, 2, 2),
      m::gpt_moe_config(2048, 2, 2, /*num_experts=*/4, /*top_k=*/2),
      m::gpt_gqa_config(2048, 2, 2),
  };
}

std::vector<rt::Strategy> all_strategies() {
  return {rt::Strategy::keep_in_gpu, rt::Strategy::ssdtrain,
          rt::Strategy::ssdtrain_cpu, rt::Strategy::recompute_full,
          rt::Strategy::ssdtrain_recompute};
}

/// Records one step and hands back the serialized program + its key.
std::string record_serialized(const rt::SessionConfig& config,
                              rt::ProgramKey* key_out = nullptr) {
  rt::TrainingSession session(config);
  session.run_step();
  const rt::StepProgram* program = session.program();
  EXPECT_NE(program, nullptr);
  const rt::ProgramKey key = rt::session_program_key(config);
  if (key_out != nullptr) *key_out = key;
  return rt::serialize_program(*program, key.text);
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

void write_file(const std::string& path, const std::string& data) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(data.data(), static_cast<std::streamsize>(data.size()));
}

/// A fresh-process stand-in: session B shares only the cache *directory*
/// with the recording session — a brand-new ProgramCache instance reads the
/// file, and B replays from step 0 without ever tracing. Its per-step stats
/// and simulator event counts must match a plain record-then-replay session
/// bit for bit.
void expect_cold_cache_equivalent(const rt::SessionConfig& config,
                                  const std::string& what) {
  SCOPED_TRACE(what);
  TempDir dir("program_cache_" + what + "/");
  {
    rt::ProgramCache writer({dir.path});
    rt::SessionConfig a_cfg = config;
    a_cfg.program_cache = &writer;
    rt::TrainingSession a(a_cfg);
    a.run_step();
    EXPECT_FALSE(a.program_from_cache());
    EXPECT_EQ(writer.stats().stores, 1u);
    EXPECT_EQ(writer.stats().misses, 1u);
  }
  rt::ProgramCache reader({dir.path});
  rt::SessionConfig b_cfg = config;
  b_cfg.program_cache = &reader;
  rt::TrainingSession b(b_cfg);
  rt::TrainingSession plain(config);
  for (int step = 0; step < kSteps; ++step) {
    const auto expected = plain.run_step();
    const auto actual = b.run_step();
    expect_equal(expected, actual, what + " step " + std::to_string(step));
  }
  EXPECT_TRUE(b.program_from_cache());
  EXPECT_EQ(reader.stats().disk_hits, 1u);
  ASSERT_NE(b.program(), nullptr);
  EXPECT_TRUE(b.program()->replayable);
  EXPECT_EQ(plain.node().simulator().events_executed(),
            b.node().simulator().events_executed());
}

}  // namespace

TEST(ProgramSerdes, RoundTripIsByteStable) {
  for (rt::Strategy strategy :
       {rt::Strategy::ssdtrain, rt::Strategy::keep_in_gpu}) {
    const rt::SessionConfig config =
        small_config(m::t5_config(2048, 2, 2), strategy);
    rt::ProgramKey key;
    const std::string bytes = record_serialized(config, &key);
    rt::StepProgram decoded;
    std::string error;
    ASSERT_TRUE(rt::deserialize_program(bytes, key.text, decoded, &error))
        << error;
    // Serializing the decoded program reproduces the input byte for byte —
    // nothing is lost or reordered through the format.
    EXPECT_EQ(rt::serialize_program(decoded, key.text), bytes);
    EXPECT_TRUE(decoded.replayable);
    EXPECT_GT(decoded.ops.size(), 0u);
    EXPECT_GT(decoded.weights.size(), 0u);
  }
}

TEST(ProgramSerdes, RejectsMalformedBuffers) {
  const rt::SessionConfig config =
      small_config(m::bert_config(2048, 2, 2), rt::Strategy::ssdtrain);
  rt::ProgramKey key;
  const std::string bytes = record_serialized(config, &key);
  rt::StepProgram out;
  std::string error;

  // Truncations at every prefix must fail cleanly, never crash or succeed.
  for (std::size_t len : {std::size_t{0}, std::size_t{4}, std::size_t{11},
                          bytes.size() / 2, bytes.size() - 1}) {
    EXPECT_FALSE(rt::deserialize_program(bytes.substr(0, len), key.text, out,
                                         &error))
        << "prefix length " << len;
  }
  // Trailing garbage is rejected (a concatenated/overwritten file).
  EXPECT_FALSE(rt::deserialize_program(bytes + "x", key.text, out, &error));

  // Wrong magic.
  std::string bad = bytes;
  bad[0] = 'X';
  EXPECT_FALSE(rt::deserialize_program(bad, key.text, out, &error));

  // Wrong format version (byte 8 starts the u32 version field).
  bad = bytes;
  bad[8] = static_cast<char>(bad[8] ^ 0x1);
  EXPECT_FALSE(rt::deserialize_program(bad, key.text, out, &error));
  EXPECT_NE(error.find("version"), std::string::npos) << error;

  // Flipped payload byte: the checksum catches it.
  bad = bytes;
  bad[bytes.size() / 2] = static_cast<char>(bad[bytes.size() / 2] ^ 0x40);
  EXPECT_FALSE(rt::deserialize_program(bad, key.text, out, &error));

  // Right bytes, wrong fingerprint: a hash collision (or a renamed file)
  // must degrade to a miss, never a wrong hit.
  EXPECT_FALSE(
      rt::deserialize_program(bytes, key.text + "-other", out, &error));
  EXPECT_NE(error.find("key"), std::string::npos) << error;

  // Well-formed but unrecordable programs (valid checksum and indices).
  rt::StepProgram decoded;
  ASSERT_TRUE(rt::deserialize_program(bytes, key.text, decoded, &error))
      << error;
  // A kernel gated on an activation allocated since the last kernel or
  // comm: that activation's producer is the kernel itself.
  rt::StepProgram self_gated = decoded;
  const auto alloc = std::find_if(
      self_gated.ops.begin(), self_gated.ops.end(), [](const auto& op) {
        return op.kind == rt::StepProgram::OpKind::alloc_activation;
      });
  ASSERT_NE(alloc, self_gated.ops.end());
  rt::StepProgram::Op gated;
  gated.kind = rt::StepProgram::OpKind::kernel;
  gated.a = static_cast<std::uint32_t>(self_gated.aux.size());
  gated.count = 1;
  self_gated.aux.push_back(alloc->a);
  self_gated.ops.insert(alloc + 1, gated);
  EXPECT_FALSE(rt::deserialize_program(
      rt::serialize_program(self_gated, key.text), key.text, out, &error));
  EXPECT_NE(error.find("kernel gated"), std::string::npos) << error;
  // More value slots than ops: every slot is created by one op.
  rt::StepProgram oversized = decoded;
  oversized.slot_count = static_cast<std::uint32_t>(oversized.ops.size() + 1);
  EXPECT_FALSE(rt::deserialize_program(
      rt::serialize_program(oversized, key.text), key.text, out, &error));
  EXPECT_NE(error.find("slot table"), std::string::npos) << error;
}

TEST(ProgramKey, SeparatesTraceShapingConfigurations) {
  const rt::SessionConfig base =
      small_config(m::bert_config(2048, 2, 2), rt::Strategy::ssdtrain);
  const std::string base_text = rt::session_program_key(base).text;
  // Same config -> same key (the cache-hit precondition).
  EXPECT_EQ(rt::session_program_key(base).text, base_text);

  auto expect_differs = [&](rt::SessionConfig changed, const char* what) {
    EXPECT_NE(rt::session_program_key(changed).text, base_text) << what;
  };
  {
    auto c = base;
    c.model.hidden = 4096;
    expect_differs(c, "hidden");
  }
  {
    auto c = base;
    c.strategy = rt::Strategy::ssdtrain_recompute;
    expect_differs(c, "strategy");
  }
  {
    auto c = base;
    c.micro_batches = 2;
    expect_differs(c, "micro_batches");
  }
  {
    auto c = base;
    c.parallel.tensor_parallel = 4;
    expect_differs(c, "tensor_parallel");
  }
  {
    auto c = base;
    c.prefetch_lookahead = 2;
    expect_differs(c, "prefetch_lookahead");
  }
  {
    auto c = base;
    c.budget_override = ssdtrain::util::gib(1);
    expect_differs(c, "budget_override");
  }
  {
    auto c = base;
    c.node.arrays[1].resize(2);
    expect_differs(c, "ssd array");
  }
  {
    auto c = base;
    c.faults.specs = ssdtrain::fault::parse_faults("io-error:rate=0.01");
    expect_differs(c, "fault specs");
  }
  {
    auto c = base;
    c.faults.specs = ssdtrain::fault::parse_faults("io-error:rate=0.01");
    c.faults.seed = 7;
    auto d = c;
    d.faults.seed = 8;
    EXPECT_NE(rt::session_program_key(c).text,
              rt::session_program_key(d).text)
        << "fault seed";
  }
  // use_replay is deliberately NOT part of the key (a cache is only
  // consulted with replay on), and neither is the worker count.
  {
    auto c = base;
    c.use_replay = false;
    EXPECT_EQ(rt::session_program_key(c).text, base_text);
  }
}

TEST(ProgramCache, ColdProcessReplayIsBitIdenticalAcrossModelGrid) {
  int i = 0;
  for (const auto& model : model_grid()) {
    for (rt::Strategy strategy : all_strategies()) {
      expect_cold_cache_equivalent(
          small_config(model, strategy),
          model.name + "_" + std::string(to_string(strategy)) + "_" +
              std::to_string(i++));
    }
  }
}

TEST(ProgramCache, GradAccumAndKnobVariantsRoundTrip) {
  {
    auto config =
        small_config(m::bert_config(2048, 2, 2), rt::Strategy::ssdtrain);
    config.micro_batches = 3;
    expect_cold_cache_equivalent(config, "grad_accum");
  }
  {
    auto config =
        small_config(m::gpt_config(2048, 2, 2), rt::Strategy::ssdtrain);
    config.forwarding = false;
    config.prefetch_lookahead = 2;
    expect_cold_cache_equivalent(config, "knobs");
  }
}

TEST(ProgramCache, InProcessTierHitsWithoutTouchingDisk) {
  rt::ProgramCache cache;  // no directory: memory tier only
  const auto config =
      small_config(m::bert_config(2048, 2, 2), rt::Strategy::keep_in_gpu);

  rt::SessionConfig a_cfg = config;
  a_cfg.program_cache = &cache;
  rt::TrainingSession a(a_cfg);
  a.run_step();
  EXPECT_FALSE(a.program_from_cache());

  rt::SessionConfig b_cfg = config;
  b_cfg.program_cache = &cache;
  rt::TrainingSession b(b_cfg);
  rt::TrainingSession plain(config);
  for (int step = 0; step < kSteps; ++step) {
    expect_equal(plain.run_step(), b.run_step(),
                 "memory tier step " + std::to_string(step));
  }
  EXPECT_TRUE(b.program_from_cache());
  EXPECT_EQ(cache.stats().memory_hits, 1u);
  EXPECT_EQ(cache.stats().disk_hits, 0u);
  EXPECT_FALSE(cache.has_directory());
}

TEST(ProgramCache, CorruptAndMismatchedFilesAreRejectedAndReTraced) {
  TempDir dir("program_cache_reject/");
  const auto config =
      small_config(m::bert_config(2048, 2, 2), rt::Strategy::ssdtrain);
  const rt::ProgramKey key = rt::session_program_key(config);
  {
    rt::ProgramCache writer({dir.path});
    rt::SessionConfig cfg = config;
    cfg.program_cache = &writer;
    rt::TrainingSession session(cfg);
    session.run_step();
    ASSERT_TRUE(fs::exists(writer.entry_path(key)));
  }

  const std::string path = rt::ProgramCache({dir.path}).entry_path(key);
  const std::string good = read_file(path);

  // Corrupt byte -> checksum reject -> miss; the session re-traces and
  // repairs the entry.
  {
    std::string bad = good;
    bad[good.size() / 2] = static_cast<char>(bad[good.size() / 2] ^ 0x7);
    write_file(path, bad);
    rt::ProgramCache reader({dir.path});
    EXPECT_EQ(reader.lookup(key), nullptr);
    EXPECT_EQ(reader.stats().disk_rejects, 1u);
    EXPECT_EQ(reader.stats().misses, 1u);

    rt::SessionConfig cfg = config;
    cfg.program_cache = &reader;
    rt::TrainingSession session(cfg);
    session.run_step();
    EXPECT_FALSE(session.program_from_cache());
    EXPECT_EQ(read_file(path), good);  // re-trace re-published the entry
  }

  // Wrong format version -> reject.
  {
    std::string bad = good;
    bad[8] = static_cast<char>(bad[8] ^ 0x1);
    write_file(path, bad);
    rt::ProgramCache reader({dir.path});
    EXPECT_EQ(reader.lookup(key), nullptr);
    EXPECT_EQ(reader.stats().disk_rejects, 1u);
  }

  // Truncated file -> reject.
  {
    write_file(path, good.substr(0, good.size() / 3));
    rt::ProgramCache reader({dir.path});
    EXPECT_EQ(reader.lookup(key), nullptr);
    EXPECT_EQ(reader.stats().disk_rejects, 1u);
  }

  // A valid file renamed onto another key's path (or a hash collision):
  // the stored key text does not match the lookup -> reject, not wrong hit.
  {
    write_file(path, good);
    auto other = config;
    other.model.hidden = 4096;
    const rt::ProgramKey other_key = rt::session_program_key(other);
    rt::ProgramCache cache({dir.path});
    fs::copy_file(path, cache.entry_path(other_key),
                  fs::copy_options::overwrite_existing);
    EXPECT_EQ(cache.lookup(other_key), nullptr);
    EXPECT_EQ(cache.stats().disk_rejects, 1u);
    // The original key still hits.
    EXPECT_NE(cache.lookup(key), nullptr);
  }
}

TEST(ProgramCacheCluster, StageSlicesReplayBitIdenticallyFromDisk) {
  rt::ClusterConfig config;
  config.model = m::bert_config(2048, 4, 2);
  config.parallel.pipeline_parallel = 2;
  config.strategy = rt::Strategy::ssdtrain;
  config.micro_batches = 2;
  config.schedule = sched::PipelineKind::one_f_one_b;

  TempDir dir("program_cache_cluster/");
  {
    rt::ProgramCache writer({dir.path});
    rt::ClusterConfig a_cfg = config;
    a_cfg.program_cache = &writer;
    rt::ClusterSession a(a_cfg);
    a.run_step();
    // One program per virtual stage, each under its own stage key.
    EXPECT_EQ(writer.stats().stores, 2u);
  }

  rt::ProgramCache reader({dir.path});
  rt::ClusterConfig b_cfg = config;
  b_cfg.program_cache = &reader;
  rt::ClusterSession b(b_cfg);
  rt::ClusterSession plain(config);
  for (int step = 0; step < kSteps; ++step) {
    const auto expected = plain.run_step();
    const auto actual = b.run_step();
    expect_equal(expected.combined, actual.combined,
                 "combined step " + std::to_string(step));
    ASSERT_EQ(expected.per_stage.size(), actual.per_stage.size());
    for (std::size_t vs = 0; vs < expected.per_stage.size(); ++vs) {
      expect_equal(expected.per_stage[vs].stats, actual.per_stage[vs].stats,
                   "stage " + std::to_string(vs) + " step " +
                       std::to_string(step));
    }
    EXPECT_EQ(expected.pipeline_time, actual.pipeline_time);
    EXPECT_EQ(expected.p2p_bytes, actual.p2p_bytes);
    EXPECT_EQ(expected.dp_bytes, actual.dp_bytes);
  }
  EXPECT_EQ(reader.stats().disk_hits, 2u);
  for (int vs = 0; vs < b.virtual_stage_count(); ++vs) {
    ASSERT_NE(b.program(vs), nullptr);
    EXPECT_TRUE(b.program(vs)->replayable);
  }
  EXPECT_EQ(plain.node().simulator().events_executed(),
            b.node().simulator().events_executed());
}

TEST(ProgramCacheCluster, InterleavedVirtualStagesSkipTheRecordStagger) {
  rt::ClusterConfig config;
  config.model = m::bert_config(2048, 4, 2);
  config.parallel.pipeline_parallel = 2;
  config.virtual_stages = 2;
  config.strategy = rt::Strategy::keep_in_gpu;
  config.micro_batches = 4;
  config.schedule = sched::PipelineKind::interleaved_1f1b;

  TempDir dir("program_cache_interleaved/");
  {
    rt::ProgramCache writer({dir.path});
    rt::ClusterConfig a_cfg = config;
    a_cfg.program_cache = &writer;
    rt::ClusterSession a(a_cfg);
    // Chunk c records on step c: two steps to populate all 4 stage keys.
    a.run_step();
    a.run_step();
    EXPECT_EQ(writer.stats().stores, 4u);
  }

  rt::ProgramCache reader({dir.path});
  rt::ClusterConfig b_cfg = config;
  b_cfg.program_cache = &reader;
  rt::ClusterSession b(b_cfg);
  rt::ClusterSession plain(config);
  for (int step = 0; step < kSteps; ++step) {
    const auto expected = plain.run_step();
    const auto actual = b.run_step();
    expect_equal(expected.combined, actual.combined,
                 "interleaved step " + std::to_string(step));
  }
  // Every chunk replayed from step 0 — no record stagger in session B.
  EXPECT_EQ(reader.stats().disk_hits, 4u);
  EXPECT_EQ(plain.node().simulator().events_executed(),
            b.node().simulator().events_executed());
}
