#include "ssdtrain/runtime/step_program.hpp"

#include <algorithm>
#include <utility>

#include "ssdtrain/util/check.hpp"

namespace ssdtrain::runtime {

using core::TensorCache;
using tensor::Tensor;

StepRecorder::StepRecorder(StepProgram& program,
                           hw::DeviceAllocator& allocator,
                           const core::TensorCache* cache)
    : program_(program), allocator_(allocator), cache_(cache) {
  program_.uses_cache = cache != nullptr;
  program_.replayable = true;  // until proven otherwise
  allocator_.set_trace_observer(
      [this](std::uint64_t id, util::Bytes, hw::MemoryTag, bool is_free) {
        on_allocator_event(id, is_free);
      });
  observer_installed_ = true;
}

StepRecorder::~StepRecorder() {
  if (observer_installed_) allocator_.set_trace_observer(nullptr);
}

StepProgram::Op& StepRecorder::push(StepProgram::OpKind kind) {
  program_.ops.emplace_back();
  program_.ops.back().kind = kind;
  return program_.ops.back();
}

std::uint32_t StepRecorder::intern_label(util::Label label) {
  // Kernel/tensor label sets are small and repeat per layer; linear search
  // during the (single) recording step keeps the program compact.
  for (std::uint32_t i = 0; i < program_.labels.size(); ++i) {
    if (program_.labels[i] == label) return i;
  }
  program_.labels.push_back(label);
  return static_cast<std::uint32_t>(program_.labels.size() - 1);
}

std::uint32_t StepRecorder::intern_shape(const tensor::TensorShape& shape) {
  for (std::uint32_t i = 0; i < program_.shapes.size(); ++i) {
    if (program_.shapes[i] == shape) return i;
  }
  program_.shapes.push_back(shape);
  return static_cast<std::uint32_t>(program_.shapes.size() - 1);
}

std::uint32_t StepRecorder::new_slot(const Tensor& t) {
  const auto slot = static_cast<std::uint32_t>(slots_.size());
  SlotInfo info;
  info.last_use_op = program_.ops.size();  // the op about to be recorded
  const tensor::Storage* storage = t.storage().get();
  if (t.device() == tensor::Device::cuda) {
    info.allocation_id = storage->allocation_id();
    slots_of_allocation_[info.allocation_id].push_back(slot);
  }
  slots_.push_back(info);
  slot_of_storage_[storage] = slot;
  return slot;
}

std::uint32_t StepRecorder::slot_of(const Tensor& t) {
  auto it = slot_of_storage_.find(t.storage().get());
  if (it == slot_of_storage_.end()) {
    invalidate("tensor outside the slot table");
    return 0;
  }
  touch(it->second);
  return it->second;
}

void StepRecorder::touch(std::uint32_t slot) {
  slots_[slot].last_use_op = program_.ops.size();
}

void StepRecorder::invalidate(std::string reason) {
  if (!program_.replayable) return;
  program_.replayable = false;
  program_.invalid_reason = std::move(reason);
}

void StepRecorder::on_allocator_event(std::uint64_t id, bool is_free) {
  if (!is_free) return;  // slot registration happens at tensor creation
  auto it = slots_of_allocation_.find(id);
  if (it == slots_of_allocation_.end()) return;  // weights, load staging, ...
  if (sim_depth_ > 0) {
    // Asynchronous death (a cache waiter or transfer closure dropped the
    // last reference mid-simulation): the replay cache reproduces the event
    // itself; the slot's own reference must simply be gone by then, so the
    // drop op is inserted after the slot's last op-stream use in finalize().
    for (std::uint32_t slot : it->second) {
      if (slots_[slot].alive) slots_[slot].drop_pending = true;
    }
  } else {
    // Synchronous death between ops (the planner dropped the last handle,
    // a graph node cleared its saved values, or a release drained the
    // cache's reference): replay must free the storage at exactly this
    // position, so every live aliasing slot drops here. One exception: a
    // slot stored as a cache entry that holds no offloaded copy. Its store
    // failed for good (or was refused) while recording, so the cache kept
    // the tensor until this release; a replay whose store lands frees it
    // in the store waiter instead, as a death inside the simulation.
    for (std::uint32_t slot : it->second) {
      SlotInfo& info = slots_[slot];
      if (!info.alive) continue;
      if (info.store_entry != kNoEntry &&
          !cache_->entry_stored(info.store_entry)) {
        info.drop_pending = true;
        continue;
      }
      info.alive = false;
      push(StepProgram::OpKind::drop_value).a = slot;
    }
  }
  slots_of_allocation_.erase(it);
}

void StepRecorder::on_make_activation(const Tensor& t) {
  const std::uint32_t label = intern_label(t.label());
  const std::uint32_t shape = intern_shape(t.shape());
  const std::uint32_t slot = new_slot(t);
  StepProgram::Op& op = push(StepProgram::OpKind::alloc_activation);
  op.a = slot;
  op.b = label;
  op.c = shape;
  op.y = static_cast<double>(t.bytes());  // raw-slot replay skips the shape
  op.dtype = static_cast<std::uint8_t>(t.dtype());
}

void StepRecorder::on_stage_input(const Tensor& t) {
  const std::uint32_t label = intern_label(t.label());
  const std::uint32_t shape = intern_shape(t.shape());
  const std::uint32_t slot = new_slot(t);
  StepProgram::Op& op = push(StepProgram::OpKind::stage_input);
  op.a = slot;
  op.b = label;
  op.c = shape;
  op.y = static_cast<double>(t.bytes());
  op.dtype = static_cast<std::uint8_t>(t.dtype());
}

void StepRecorder::on_comm(util::Label label, util::Bytes traffic,
                           util::Seconds latency) {
  StepProgram::Op& op = push(StepProgram::OpKind::comm);
  op.b = intern_label(label);
  op.x = latency;
  op.y = static_cast<double>(traffic);
}

void StepRecorder::begin_command() {
  program_.segments.push_back(static_cast<std::uint32_t>(program_.ops.size()));
}

void StepRecorder::on_make_host_tensor(const Tensor& t) {
  const std::uint32_t label = intern_label(t.label());
  const std::uint32_t shape = intern_shape(t.shape());
  const std::uint32_t slot = new_slot(t);
  StepProgram::Op& op = push(StepProgram::OpKind::alloc_host);
  op.a = slot;
  op.b = label;
  op.c = shape;
  op.dtype = static_cast<std::uint8_t>(t.dtype());
}

void StepRecorder::on_kernel(const std::string& label, util::Seconds duration,
                             util::Flops flops, bool algorithmic,
                             std::span<const Tensor> consumed) {
  const auto aux_begin = static_cast<std::uint32_t>(program_.aux.size());
  std::uint16_t count = 0;
  for (const Tensor& t : consumed) {
    if (!t.defined()) continue;
    // Only tensors carrying a ready event can ever gate a kernel; whether
    // the event has fired by enqueue time stays a replay-time check,
    // mirroring the trace path's `ready && !ready->done()`.
    if (!t.storage()->ready_event()) continue;
    auto it = slot_of_storage_.find(t.storage().get());
    if (it == slot_of_storage_.end()) {
      invalidate("gated tensor outside the slot table");
      continue;
    }
    if (count == kMaxOpCount) {
      invalidate("kernel dependency list exceeds the op count field");
      continue;
    }
    touch(it->second);
    program_.aux.push_back(it->second);
    ++count;
  }
  StepProgram::Op& op = push(StepProgram::OpKind::kernel);
  op.a = aux_begin;
  op.count = count;
  op.b = intern_label(label);
  op.x = duration;
  op.y = flops;
  op.flags = StepProgram::kFlagBind | StepProgram::kFlagPace |
             (algorithmic ? StepProgram::kFlagAlgorithmic : 0);
}

void StepRecorder::on_plain_enqueue(util::Label label,
                                    util::Seconds duration) {
  StepProgram::Op& op = push(StepProgram::OpKind::enqueue_only);
  op.b = intern_label(label);
  op.x = duration;
}

void StepRecorder::on_pre_optimizer_marker() {
  push(StepProgram::OpKind::marker_pre_optimizer);
}

void StepRecorder::cache_pack_passthrough(TensorCache::PassKind kind) {
  push(StepProgram::OpKind::pack_passthrough).flags =
      static_cast<std::uint8_t>(kind);
}

void StepRecorder::cache_pack_dedup() { push(StepProgram::OpKind::pack_dedup); }

StepProgram::Op& StepRecorder::pack_entry(StepProgram::OpKind kind,
                                          const Tensor& t,
                                          std::uint32_t entry) {
  // Legal on the trace path (dedup is per micro-batch record, ids are per
  // step), but the two micro-batches' entries would file their extents
  // under one offloader id: fall back to tracing rather than replaying that.
  if (!packed_ids_.insert(cache_->entry_table()[entry].id).second) {
    invalidate("tensor id packed twice in one step");
  }
  const std::uint32_t slot = slot_of(t);
  StepProgram::Op& op = push(kind);
  op.a = entry;
  op.b = slot;
  return op;
}

void StepRecorder::cache_pack_keep(const Tensor& t, std::uint32_t entry,
                                   TensorCache::KeepReason reason) {
  pack_entry(StepProgram::OpKind::pack_keep, t, entry).flags =
      static_cast<std::uint8_t>(reason);
}

void StepRecorder::cache_pack_store(const Tensor& t, std::uint32_t entry) {
  const std::uint32_t slot =
      pack_entry(StepProgram::OpKind::pack_store, t, entry).b;
  // slot_of() answers 0 for a tensor outside the (possibly empty) table.
  if (slot < slots_.size()) slots_[slot].store_entry = entry;
}

void StepRecorder::cache_unpack_passthrough() {
  push(StepProgram::OpKind::unpack_passthrough);
}

void StepRecorder::cache_unpack_entry(std::uint32_t entry,
                                      const Tensor& result) {
  // The result gets a fresh slot: depending on timing the replayed unpack
  // may return the original storage (kept/forwarded) or a freshly loaded
  // tensor, and downstream kernels must gate on whichever it was.
  const std::uint32_t slot = new_slot(result);
  StepProgram::Op& op = push(StepProgram::OpKind::unpack_entry);
  op.a = entry;
  op.b = slot;
}

void StepRecorder::cache_prefetch(std::span<const std::uint32_t> candidates) {
  if (candidates.size() > kMaxOpCount) {
    invalidate("prefetch window exceeds the op count field");
    return;
  }
  const auto aux_begin = static_cast<std::uint32_t>(program_.aux.size());
  program_.aux.insert(program_.aux.end(), candidates.begin(),
                      candidates.end());
  StepProgram::Op& op = push(StepProgram::OpKind::prefetch);
  op.a = aux_begin;
  op.count = static_cast<std::uint16_t>(candidates.size());
}

void StepRecorder::cache_release(std::uint32_t entry) {
  push(StepProgram::OpKind::release_entry).a = entry;
  ++releases_;
}

void StepRecorder::finalize() {
  util::expects(observer_installed_, "recorder finalized twice");
  allocator_.set_trace_observer(nullptr);
  observer_installed_ = false;

  // The program keeps the cache's record-time entry table. Entries the
  // recorded step never released would collide with next step's offloader
  // slots under replay (the program reuses the recorded TensorIds); such a
  // step stays on the trace path.
  if (cache_ != nullptr) {
    const auto table = cache_->entry_table();
    program_.entries.assign(table.begin(), table.end());
  }
  if (releases_ != program_.entries.size()) {
    invalidate("recorded step leaked cache entries");
  }

  // Close the segment table before drop insertion moves ops.
  program_.segments.push_back(static_cast<std::uint32_t>(program_.ops.size()));

  // Deferred drops for asynchronously-released storages: the slot's
  // reference must be gone before the cache/transfer waiter that freed the
  // storage can fire, and anywhere after the slot's last op-stream use is
  // equivalent (only event closures hold the storage in between).
  std::map<std::size_t, std::vector<std::uint32_t>> inserts;
  for (std::uint32_t slot = 0; slot < slots_.size(); ++slot) {
    SlotInfo& info = slots_[slot];
    if (info.alive && info.drop_pending) {
      info.alive = false;
      inserts[info.last_use_op].emplace_back(slot);
    }
  }
  if (!inserts.empty()) {
    std::vector<StepProgram::Op> merged;
    merged.reserve(program_.ops.size() + slots_.size());
    for (std::size_t i = 0; i < program_.ops.size(); ++i) {
      merged.push_back(program_.ops[i]);
      auto it = inserts.find(i);
      if (it == inserts.end()) continue;
      for (std::uint32_t slot : it->second) {
        StepProgram::Op drop;
        drop.kind = StepProgram::OpKind::drop_value;
        drop.a = slot;
        merged.push_back(drop);
      }
    }
    program_.ops = std::move(merged);
    // Inserted drops shift every segment boundary past them: a drop keyed
    // "after op i" lands inside any segment whose old boundary exceeds i.
    for (std::uint32_t& boundary : program_.segments) {
      std::uint32_t shift = 0;
      for (const auto& [pos, slots] : inserts) {
        if (pos < boundary) shift += static_cast<std::uint32_t>(slots.size());
      }
      boundary += shift;
    }
  }
  // Slots still alive here (host inputs, weights-adjacent survivors) are
  // reset by Executor::end_replay_step after the step's stats are taken,
  // mirroring the trace path's post-stats graph/loss teardown.

  program_.slot_count = static_cast<std::uint32_t>(slots_.size());
}

}  // namespace ssdtrain::runtime
