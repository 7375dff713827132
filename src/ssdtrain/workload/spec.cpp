#include "ssdtrain/workload/spec.hpp"

#include <algorithm>

#include "ssdtrain/util/check.hpp"

namespace ssdtrain::workload {

double AttentionSpec::kv_ratio(std::int64_t query_heads) const {
  if (kv_heads <= 0) return 1.0;
  return static_cast<double>(kv_heads) / static_cast<double>(query_heads);
}

double FfnSpec::effective_load() const {
  if (!moe()) return 1.0;
  return static_cast<double>(top_k) * capacity_factor /
         static_cast<double>(expert_parallel);
}

std::int64_t FfnSpec::routed_tokens(std::int64_t seq) const {
  if (!moe()) return seq;
  const double tokens = static_cast<double>(seq) * effective_load();
  const auto rounded = static_cast<std::int64_t>(tokens + 0.5);
  return rounded < 1 ? 1 : rounded;
}

int WorkloadSpec::total_layers() const {
  int total = 0;
  for (const LayerSpec& group : layers) total += group.count;
  return total;
}

bool WorkloadSpec::has_cross_attention() const {
  for (const LayerSpec& group : layers) {
    if (group.attention.cross_attention) return true;
  }
  return false;
}

bool WorkloadSpec::has_moe() const {
  for (const LayerSpec& group : layers) {
    if (group.ffn.moe()) return true;
  }
  return false;
}

const LayerSpec& WorkloadSpec::last_group() const {
  util::expects(!layers.empty(), "empty workload");
  return layers.back();
}

void WorkloadSpec::validate(std::int64_t query_heads) const {
  util::expects(!layers.empty(), "workload needs at least one layer group");
  bool saw_memory_producer = false;
  bool saw_cross = false;
  for (const LayerSpec& group : layers) {
    util::expects(group.count >= 1, "layer group count must be >= 1");
    const AttentionSpec& attn = group.attention;
    if (attn.kv_heads > 0) {
      util::expects(attn.kv_heads <= query_heads,
                    "kv_heads exceeds query heads");
      util::expects(query_heads % attn.kv_heads == 0,
                    "query heads must be a multiple of kv_heads");
    }
    if (attn.cross_attention) {
      util::expects(saw_memory_producer || stage_slice,
                    "cross-attention group needs a preceding encoder group "
                    "to produce the shared memory");
      saw_cross = true;
    } else {
      // The encoder-decoder topology runs every non-cross group before
      // the cross groups; an encoder group declared *after* a decoder
      // group would execute out of declared order, desynchronising the
      // planner's per-layer profile (and its last-group carve-out) from
      // execution. Reject the interleaving instead of reordering it.
      util::expects(!saw_cross,
                    "encoder (non-cross) groups must precede every "
                    "cross-attention group");
      saw_memory_producer = true;
    }
    const FfnSpec& ffn = group.ffn;
    util::expects(ffn.num_experts >= 1, "num_experts must be >= 1");
    util::expects(ffn.top_k >= 1 && ffn.top_k <= ffn.num_experts,
                  "top_k must be in [1, num_experts]");
    util::expects(ffn.capacity_factor >= 1.0,
                  "capacity factor must be >= 1");
    util::expects(ffn.expert_parallel >= 1 &&
                      ffn.num_experts % ffn.expert_parallel == 0,
                  "expert_parallel must divide num_experts");
  }
}

WorkloadSpec WorkloadSpec::slice(int first, int count) const {
  util::expects(first >= 0 && count >= 1, "bad slice range");
  util::expects(first + count <= total_layers(), "slice past the workload");
  WorkloadSpec out;
  out.decoder_only = decoder_only;
  out.stage_slice = true;
  int begin = first;            // remaining offset into the current group
  int remaining = count;
  for (const LayerSpec& group : layers) {
    if (remaining == 0) break;
    if (begin >= group.count) {
      begin -= group.count;
      continue;
    }
    LayerSpec part = group;
    part.count = std::min(group.count - begin, remaining);
    remaining -= part.count;
    begin = 0;
    out.layers.push_back(std::move(part));
  }
  return out;
}

WorkloadSpec WorkloadSpec::single_stack(int layers, bool causal) {
  util::expects(layers >= 1, "need at least one layer");
  WorkloadSpec spec;
  LayerSpec group;
  group.label = "layer";
  group.count = layers;
  group.attention.causal = causal;
  spec.layers.push_back(std::move(group));
  spec.decoder_only = causal;
  return spec;
}

WorkloadSpec WorkloadSpec::encoder_decoder(int encoders, int decoders) {
  util::expects(encoders >= 1, "need at least one encoder layer");
  util::expects(decoders >= 1, "need at least one decoder layer");
  WorkloadSpec spec;
  LayerSpec enc;
  enc.label = "encoder";
  enc.count = encoders;
  spec.layers.push_back(std::move(enc));
  LayerSpec dec;
  dec.label = "decoder";
  dec.count = decoders;
  dec.attention.causal = true;
  dec.attention.cross_attention = true;
  spec.layers.push_back(std::move(dec));
  return spec;
}

}  // namespace ssdtrain::workload
