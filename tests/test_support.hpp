#pragma once

// Shared test fixture pieces: a minimal ExecutionContext that plans modules
// against a real DeviceAllocator, counts kernels/FLOPs, and can install a
// recording pack hook that measures exactly which saved tensors a module
// registers (deduplicated by get_id, weights and small/CPU tensors
// excluded) — the same accounting the paper's activation model performs.
// Also the offloader's two tiers by name, for cases that must hold on both,
// and a traced step of an arbitrary schedule through a session's executor.

#include <memory>
#include <set>
#include <string>
#include <vector>

#include "ssdtrain/core/offloader.hpp"
#include "ssdtrain/graph/graph.hpp"
#include "ssdtrain/hw/device_allocator.hpp"
#include "ssdtrain/modules/execution_context.hpp"
#include "ssdtrain/runtime/session.hpp"
#include "ssdtrain/sched/schedule.hpp"
#include "ssdtrain/tensor/tensor.hpp"
#include "ssdtrain/tensor/tensor_id.hpp"
#include "ssdtrain/util/check.hpp"

namespace ssdtrain::testing {

class TestContext final : public modules::ExecutionContext {
 public:
  explicit TestContext(hw::DeviceAllocator& allocator,
                       parallel::ParallelConfig parallel = {})
      : factory_(allocator), parallel_(parallel) {}

  // -- ExecutionContext ------------------------------------------------------
  tensor::Tensor make_activation(std::string label, tensor::TensorShape shape,
                                 tensor::DType dtype) override {
    ++activations_created;
    return factory_.cuda(std::move(label), std::move(shape), dtype,
                         hw::MemoryTag::activation);
  }

  tensor::Tensor weight(const std::string& key, tensor::TensorShape shape,
                        tensor::DType dtype) override {
    auto it = weights_.find(key);
    if (it != weights_.end()) return it->second;
    auto w = factory_.cuda(key, std::move(shape), dtype,
                           hw::MemoryTag::weights);
    weight_storages_.insert(w.storage().get());
    weights_.emplace(key, w);
    return w;
  }

  tensor::Tensor make_host_tensor(std::string label,
                                  tensor::TensorShape shape,
                                  tensor::DType dtype) override {
    return factory_.cpu(std::move(label), std::move(shape), dtype);
  }

  void kernel(std::string label, util::Flops flops, util::Bytes bytes_read,
              util::Bytes bytes_written,
              std::vector<tensor::Tensor> consumed) override {
    (void)consumed;
    kernel_labels.push_back(std::move(label));
    total_flops += flops;
    total_bytes += bytes_read + bytes_written;
    ++kernels;
  }

  void tp_all_reduce(util::Bytes bytes) override {
    ++all_reduces;
    all_reduce_bytes += bytes;
  }

  graph::GraphNode& make_node(std::string name) override {
    return graph_.make_node(std::move(name));
  }

  const graph::SavedTensorHooks* hooks() const override {
    if (!hook_stack_.empty()) return hook_stack_.back();
    return hooks_;
  }

  const parallel::ParallelConfig& parallel() const override {
    return parallel_;
  }
  int micro_batch() const override { return micro_batch_; }
  bool recompute_mode() const override { return recompute_mode_; }

  void push_hooks(const graph::SavedTensorHooks* hooks) override {
    hook_stack_.push_back(hooks);
  }
  void pop_hooks() override { hook_stack_.pop_back(); }
  void begin_recompute_segment() override { ++recompute_segments_open; }
  void end_recompute_segment() override {
    --recompute_segments_open;
    ++recompute_segments_closed;
  }

  // -- test helpers ----------------------------------------------------------
  /// Installs a hook pair that records deduplicated saved-activation bytes
  /// (weights/CPU/small tensors pass through, as in Alg. 1) and keeps the
  /// tensors alive so backward can unpack them.
  void install_recording_hooks(std::int64_t min_elements = 1 << 20) {
    recording_hooks_.pack = [this,
                             min_elements](const tensor::Tensor& t)
        -> graph::PackedValue {
      if (t.is_cpu() || weight_storages_.contains(t.storage().get()) ||
          t.numel() < min_elements) {
        return t;
      }
      const auto id = ids_.get_id(t);
      if (!recorded_ids_.contains(id)) {
        recorded_ids_.insert(id);
        recorded_bytes += t.bytes();
      } else {
        ++dedup_hits;
      }
      kept_[id] = t;
      return id;
    };
    recording_hooks_.unpack =
        [this](const graph::PackedValue& v) -> tensor::Tensor {
      if (std::holds_alternative<tensor::Tensor>(v)) {
        return std::get<tensor::Tensor>(v);
      }
      return kept_.at(std::get<tensor::TensorId>(v));
    };
    hooks_ = &recording_hooks_;
  }

  void set_micro_batch(int mb) { micro_batch_ = mb; }
  void set_recompute(bool on) { recompute_mode_ = on; }
  void drop_kept() { kept_.clear(); }

  // Counters (public on purpose: read by assertions).
  std::size_t kernels = 0;
  std::size_t activations_created = 0;
  std::size_t all_reduces = 0;
  util::Bytes all_reduce_bytes = 0;
  util::Flops total_flops = 0.0;
  double total_bytes = 0.0;
  util::Bytes recorded_bytes = 0;
  std::size_t dedup_hits = 0;
  int recompute_segments_open = 0;
  int recompute_segments_closed = 0;
  std::vector<std::string> kernel_labels;

 private:
  tensor::TensorFactory factory_;
  parallel::ParallelConfig parallel_;
  graph::Graph graph_;
  const graph::SavedTensorHooks* hooks_ = nullptr;
  std::vector<const graph::SavedTensorHooks*> hook_stack_;
  graph::SavedTensorHooks recording_hooks_;
  tensor::IdAssigner ids_;
  std::set<tensor::TensorId> recorded_ids_;
  std::map<tensor::TensorId, tensor::Tensor> kept_;
  std::map<std::string, tensor::Tensor> weights_;
  std::set<const tensor::Storage*> weight_storages_;
  int micro_batch_ = 0;
  bool recompute_mode_ = false;
};

/// The offload engine's two tiers, for test cases parameterized over both.
enum class TierKind { ssd, host };

inline std::string to_string(TierKind kind) {
  return kind == TierKind::ssd ? "ssd" : "host";
}

/// GPU 0's tier of \p kind on \p node.
inline std::unique_ptr<core::OffloadTier> make_tier(TierKind kind,
                                                    hw::TrainingNode& node) {
  if (kind == TierKind::ssd) return std::make_unique<core::SsdTier>(node, 0);
  return std::make_unique<core::HostTier>(node, 0);
}

/// Traces one step of \p schedule through the executor phases of
/// \p session, as the session's own trace path does, but with a schedule of
/// the caller's choosing: one pipeline stage's command stream, say, which
/// TrainingSession itself never runs.
inline runtime::StepStats trace_schedule_step(
    runtime::TrainingSession& session,
    const std::vector<sched::Command>& schedule) {
  runtime::Executor& executor = session.executor();
  const runtime::Executor::StepBaseline base = executor.begin_trace_step();
  sim::CompletionPtr pre_optimizer;
  for (std::size_t i = 0; i < schedule.size(); ++i) {
    executor.exec_command(session.model(), schedule, i, pre_optimizer);
  }
  const sim::CompletionPtr step_end = executor.record_step_end();
  auto& sim = session.node().simulator();
  while (!step_end->done()) {
    util::check(sim.step(), "simulation stalled before step end");
  }
  sim.run();
  runtime::StepStats stats =
      executor.collect_step(base, pre_optimizer, step_end);
  executor.end_trace_step();
  return stats;
}

}  // namespace ssdtrain::testing
