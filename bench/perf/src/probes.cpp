// Standalone layer probes: each calls one layer's public API in isolation,
// sized from the workload's own inputs and measured counters, inside spans
// the per-layer host timings are read from.

#include <algorithm>
#include <cmath>
#include <memory>
#include <string>
#include <vector>

#include "perf.hpp"
#include "ssdtrain/ckpt/manifest.hpp"
#include "ssdtrain/ckpt/writer.hpp"
#include "ssdtrain/hw/ssd/raid0.hpp"
#include "ssdtrain/runtime/program_serdes.hpp"
#include "ssdtrain/sim/bandwidth_network.hpp"
#include "ssdtrain/sim/simulator.hpp"

namespace perf {
namespace {

namespace ck = ssdtrain::ckpt;
namespace hw = ssdtrain::hw;
namespace rt = ssdtrain::runtime;
namespace sim = ssdtrain::sim;
namespace u = ssdtrain::util;

/// Builds the workload's machine a few times, then commits and restores
/// checkpoints of the workload's shards on the last one.
void probe_node_and_checkpoint(const ProbeInputs& in, int reps,
                               Tracer& tracer, Status& status) {
  std::unique_ptr<hw::TrainingNode> node;
  for (int i = 0; i < reps; ++i) {
    node.reset();  // one machine alive at a time
    Tracer::Span span(tracer, "hw.node_build");
    node = std::make_unique<hw::TrainingNode>(in.node);
  }
  ck::CheckpointWriter writer(*node, /*use_gds=*/true);
  std::vector<int> gpus;
  for (const ck::CheckpointManifest::Shard& shard : in.shards) {
    writer.add_stage(shard.gpu, shard.chunk, shard.weight_bytes,
                     shard.optimizer_bytes);
    gpus.push_back(shard.gpu);
  }
  for (int i = 1; i <= reps; ++i) {
    Tracer::Span span(tracer, "ckpt.commit");
    writer.write(static_cast<std::uint64_t>(i));
  }
  for (int i = 0; i < reps; ++i) {
    ck::RestoreResult restored;
    {
      Tracer::Span span(tracer, "ckpt.restore");
      restored = writer.restore(gpus);
    }
    ++status.attempted;
    if (!restored.restored ||
        restored.step != static_cast<std::uint64_t>(reps)) {
      status.fail("checkpoint probe: restore missed the newest commit");
    }
  }
}

/// Drives a fresh array of the workload's drives with its per-step store
/// pattern: allocate_extent -> record_write per store, then release every
/// extent at the step's end, as the tensor cache does after backward.
/// Workloads that store nothing drive one full stripe per step, the FTL's
/// per-step floor. Returns the host pages written.
std::int64_t probe_ssd(const ProbeInputs& in, const Counters& c, int steps,
                       Tracer& tracer) {
  const std::vector<hw::SsdSpec>& specs =
      in.node.arrays.at(static_cast<std::size_t>(in.gpu));
  int stores = 1;
  u::Bytes extent = u::kib(512) * static_cast<u::Bytes>(specs.size());
  if (c.stores > 0 && c.steps > 0) {
    stores = std::max(1, static_cast<int>(std::lround(
                             static_cast<double>(c.stores) /
                             static_cast<double>(c.steps))));
    extent = static_cast<u::Bytes>(c.bytes_stored / c.stores);
  }
  sim::Simulator simulator;
  sim::BandwidthNetwork network(simulator);
  hw::Raid0Array array(network, "probe", specs);
  const auto pages = [&array] {
    std::int64_t total = 0;
    for (std::size_t i = 0; i < array.member_count(); ++i) {
      total += array.member(i).ftl().host_pages_written();
    }
    return total;
  };
  const std::int64_t before = pages();
  std::vector<hw::ArrayExtent> live;
  live.reserve(static_cast<std::size_t>(stores));
  for (int s = 0; s < steps; ++s) {
    Tracer::Span step(tracer, "hw.ssd.probe_step");
    for (int i = 0; i < stores; ++i) {
      {
        Tracer::Span span(tracer, "hw.ssd.allocate_extent");
        live.push_back(array.allocate_extent(extent));
      }
      Tracer::Span span(tracer, "hw.ssd.record_write");
      array.record_write(live.back());
    }
    Tracer::Span span(tracer, "hw.ssd.release_extent");
    for (const hw::ArrayExtent& e : live) array.release_extent(e);
    live.clear();
  }
  simulator.run();
  return pages() - before;
}

void probe_manifest(const ProbeInputs& in, int reps, Tracer& tracer,
                    Status& status) {
  ck::CheckpointManifest manifest;
  manifest.sequence = 7;
  manifest.step = 56;
  manifest.sim_time = 12.5;
  manifest.shards = in.shards;
  for (int i = 0; i < reps; ++i) {
    std::string blob;
    {
      Tracer::Span span(tracer, "ckpt.manifest_serialize");
      blob = ck::serialize_manifest(manifest);
    }
    ck::CheckpointManifest back;
    bool ok = false;
    {
      Tracer::Span span(tracer, "ckpt.manifest_deserialize");
      ok = ck::deserialize_manifest(blob, back);
    }
    ++status.attempted;
    if (!ok || !(back == manifest)) {
      status.fail("manifest probe: round trip changed the manifest");
    }
  }
}

/// Serializes and deserializes the workload's whole program set per rep,
/// then checks that a deserialized program serializes to the same bytes.
void probe_programs(std::span<const rt::StepProgram* const> programs,
                    int reps, Tracer& tracer, Status& status,
                    ProbeCounts& out) {
  constexpr std::string_view kKey = "ssdtrain_perf probe";
  std::vector<std::string> blobs(programs.size());
  for (int rep = 0; rep < reps; ++rep) {
    {
      Tracer::Span span(tracer, "runtime.program_serialize");
      for (std::size_t i = 0; i < programs.size(); ++i) {
        blobs[i] = rt::serialize_program(*programs[i], kKey);
      }
    }
    Tracer::Span span(tracer, "runtime.program_deserialize");
    for (const std::string& blob : blobs) {
      rt::StepProgram back;
      if (!rt::deserialize_program(blob, kKey, back)) {
        status.fail("program probe: a serialized program was rejected");
      }
    }
  }
  for (std::size_t i = 0; i < programs.size(); ++i) {
    out.program_ops += programs[i]->ops.size();
    out.program_bytes += blobs[i].size();
    rt::StepProgram back;
    std::string error;
    ++status.attempted;
    if (!rt::deserialize_program(blobs[i], kKey, back, &error) ||
        rt::serialize_program(back, kKey) != blobs[i]) {
      status.fail("program probe: round trip changed the program " + error);
    }
  }
  ++status.attempted;
  if (programs.empty()) status.fail("program probe: no recorded program");
}

}  // namespace

ProbeCounts run_probes(Workload& workload, const Counters& counters,
                       bool smoke, Tracer& tracer, Status& status) {
  const ProbeInputs in = workload.probe_inputs();
  ProbeCounts out;
  try {
    probe_node_and_checkpoint(in, smoke ? 1 : 3, tracer, status);
    out.ssd_pages = probe_ssd(in, counters, smoke ? 2 : 10, tracer);
    probe_manifest(in, smoke ? 10 : 200, tracer, status);
    workload.with_programs(
        [&](std::span<const rt::StepProgram* const> programs) {
          probe_programs(programs, smoke ? 1 : 5, tracer, status, out);
        },
        status);
  } catch (const std::exception& e) {
    status.fail(std::string("probe: ") + e.what());
  }
  return out;
}

}  // namespace perf
