#pragma once

/// \file spec.hpp
/// Layer-composition description of a training workload. A WorkloadSpec is
/// an ordered list of LayerSpec groups — each group a run of identical
/// transformer layers described by their attention variant (MHA or GQA,
/// causal or bidirectional, optional cross-attention over a shared encoder
/// memory) and FFN variant (dense, or MoE with experts / top-k / capacity
/// factor) — bracketed by the implicit embedding and LM-head blocks every
/// model shares.
///
/// The spec is the single source of truth for the whole activation
/// accounting path: modules/ builds the layer stack from it, analysis/
/// folds per-LayerSpec byte and FLOP contributions over it, and core/
/// plans the offload budget from the resulting per-layer byte profile.
/// Adding a workload is a data change (a new factory filling in a spec),
/// not a code change.

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

namespace ssdtrain::workload {

/// Self-attention variant of one layer group.
struct AttentionSpec {
  /// Causal (autoregressive) masking. Drives the module construction; the
  /// perf model's triangular-FLOP discount is a workload-level choice
  /// (WorkloadSpec::decoder_only), matching the paper's §III-D coarseness.
  bool causal = false;
  /// Grouped-query attention: number of key/value heads. 0 means "same as
  /// the query heads" (classic multi-head attention).
  std::int64_t kv_heads = 0;
  /// Adds a cross-attention block over the shared encoder memory (the T5
  /// decoder shape). All cross-attending groups read the same memory,
  /// which the tensor cache deduplicates to a single saved tensor.
  bool cross_attention = false;
  /// Per-group flash-attention override; nullopt inherits the model-level
  /// ModelConfig::flash_attention flag.
  std::optional<bool> flash;

  [[nodiscard]] bool grouped_query(std::int64_t query_heads) const {
    return kv_heads > 0 && kv_heads != query_heads;
  }

  /// kv_heads / query_heads in [0, 1] — the factor by which the K/V
  /// projections (and their saved activations) shrink under GQA. Exactly
  /// 1.0 for MHA, so MHA formulas specialise bit-identically.
  [[nodiscard]] double kv_ratio(std::int64_t query_heads) const;
};

/// Feed-forward variant of one layer group.
struct FfnSpec {
  int num_experts = 1;  ///< 1 = dense MLP (no router)
  int top_k = 1;
  double capacity_factor = 1.0;
  /// Expert parallelism degree: experts are sharded EP ways, and each GPU
  /// processes its 1/EP share of the routed tokens.
  int expert_parallel = 1;

  [[nodiscard]] bool moe() const { return num_experts > 1; }

  /// Per-GPU routed-token multiplier relative to a dense FFN: top_k copies
  /// of every token, inflated by the capacity factor, split across the
  /// expert-parallel group. Exactly 1.0 for the dense configuration.
  [[nodiscard]] double effective_load() const;

  /// Routed tokens per batch element for a sequence of \p seq tokens — the
  /// expert-FFN sequence length. Modules and the analytic activation model
  /// share this rounding so the closed form matches the simulated sizes.
  [[nodiscard]] std::int64_t routed_tokens(std::int64_t seq) const;
};

/// One run of `count` identical transformer layers.
struct LayerSpec {
  std::string label = "layer";  ///< module-name prefix ("encoder", ...)
  int count = 0;
  AttentionSpec attention;
  FfnSpec ffn;
};

/// Whole-model layer composition: embedding -> layer groups -> LM head.
struct WorkloadSpec {
  std::vector<LayerSpec> layers;
  /// Decoder-only LM (the GPT family). The perf model applies the causal
  /// triangular-structure FLOP discount at this granularity — encoder-
  /// decoder stacks keep the full-rectangle estimate even though their
  /// decoder halves mask causally, reproducing the paper's §III-D model.
  bool decoder_only = false;
  /// Set by slice(): this spec covers one pipeline stage's layer range, so
  /// validate() accepts cross-attention groups with no local memory
  /// producer (the encoder memory arrives from an upstream stage).
  bool stage_slice = false;

  [[nodiscard]] bool empty() const { return layers.empty(); }
  [[nodiscard]] int total_layers() const;
  [[nodiscard]] bool has_cross_attention() const;
  [[nodiscard]] bool has_moe() const;
  /// The last transformer layer's group — the keep-last-module carve-out
  /// (paper Fig. 2 (4)) is sized from this group's FFN variant.
  [[nodiscard]] const LayerSpec& last_group() const;

  /// Sub-spec covering the `count` transformer layers starting at global
  /// layer `first` (0-based, forward order): partial groups shrink and
  /// untouched groups drop. A slice over the whole range reproduces this
  /// spec's groups exactly (plus the stage_slice marker). Backbone of the
  /// per-pipeline-stage planner budgets.
  [[nodiscard]] WorkloadSpec slice(int first, int count) const;

  /// Contract checks: positive counts, kv_heads dividing the query heads,
  /// MoE fields in range, cross-attention groups preceded by at least one
  /// non-cross group (something must produce the shared memory).
  void validate(std::int64_t query_heads) const;

  // -- factories ------------------------------------------------------------
  /// Uniform single stack (BERT/GPT shape).
  static WorkloadSpec single_stack(int layers, bool causal);
  /// Encoder stack followed by cross-attending decoder stack (T5 shape).
  static WorkloadSpec encoder_decoder(int encoders, int decoders);
};

}  // namespace ssdtrain::workload
