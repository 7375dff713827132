#include "ssdtrain/core/tensor_cache.hpp"

#include <algorithm>

#include "ssdtrain/util/check.hpp"
#include "ssdtrain/util/logging.hpp"
#include "ssdtrain/util/unique_function.hpp"

namespace ssdtrain::core {

using tensor::Tensor;
using tensor::TensorId;

TensorCache::TensorCache(sim::Simulator& sim, Offloader& offloader,
                         TensorCacheConfig config)
    : sim_(sim), offloader_(offloader), config_(config) {
  hooks_.pack = [this](const Tensor& t) { return pack(t); };
  hooks_.unpack = [this](const graph::PackedValue& v) { return unpack(v); };
}

void TensorCache::register_weight(const tensor::Tensor& weight) {
  util::expects(weight.defined(), "undefined weight");
  weight_ids_.insert(ids_.get_id(weight));
  // Linear layers register W^T on the graph (paper §III-C1): the transpose
  // shares the storage (and thus the stamp), so its id is stable too.
  if (weight.shape().rank() >= 2) {
    weight_ids_.insert(ids_.get_id(weight.transpose_view()));
  }
}

void TensorCache::install_hooks(modules::Model& model) {
  for (modules::Module* layer : model.transformer_layers()) {
    layer_set_.insert(layer);
  }
  model.visit_modules([this](modules::Module& m) {
    m.register_forward_pre_hook(
        [this](modules::Module& mod, modules::ExecutionContext&) {
          on_forward_pre(mod);
        });
    m.register_forward_hook(
        [this](modules::Module& mod, modules::ExecutionContext&) {
          on_forward_post(mod);
        });
    m.register_backward_pre_hook(
        [this](modules::Module& mod, modules::ExecutionContext&) {
          on_backward_pre(mod);
        });
    m.register_backward_hook(
        [this](modules::Module& mod, modules::ExecutionContext&) {
          on_backward_post(mod);
        });
  });
}

bool TensorCache::is_weight(const tensor::Tensor& t) const {
  if (!tensor::IdAssigner::is_stamped(t)) return false;
  // Reconstruct the id without stamping: storage already carries the stamp.
  const TensorId id{*t.storage()->id_stamp(), t.shape().hash()};
  return weight_ids_.contains(id);
}

void TensorCache::on_step_begin() {
  const std::size_t leaked = tracked_entries();
  if (leaked > 0) {
    util::log_warning("tensor cache: " + std::to_string(leaked) +
                      " entries leaked across step boundary");
  }
  records_.clear();
  recorded_.clear();
  table_ = recorded_;
  entries_.clear();
  ++epoch_;
  current_mb_ = 0;
  in_backward_ = false;
}

void TensorCache::on_micro_batch(int index) {
  // Fig. 2 ②: switch to the record of the new micro-batch.
  current_mb_ = index;
}

void TensorCache::on_forward_begin() { in_backward_ = false; }

void TensorCache::on_backward_begin() { in_backward_ = true; }

void TensorCache::set_keep_scopes(
    std::vector<const modules::Module*> scopes) {
  keep_scopes_.clear();
  for (const auto* m : scopes) keep_scopes_.insert(m);
}

std::size_t TensorCache::tracked_entries() const {
  return static_cast<std::size_t>(
      std::count_if(entries_.begin(), entries_.end(),
                    [](const Entry& e) { return !e.released; }));
}

TensorCache::EntryState TensorCache::entry_state(const TensorId& id) const {
  auto rec_it = records_.find(current_mb_);
  util::expects(rec_it != records_.end(), "no record for micro-batch");
  auto it = rec_it->second.tracked.find(id);
  util::expects(it != rec_it->second.tracked.end(), "unknown entry");
  return entries_[it->second.index].state;
}

TensorCache::EntryState TensorCache::entry_state(std::uint32_t index) const {
  util::expects(index < entries_.size(), "entry index out of range");
  return entries_[index].state;
}

TensorCache::Record& TensorCache::record() { return records_[current_mb_]; }

bool TensorCache::in_keep_scope() const {
  // Keep scopes may sit at any level of the module tree (the paper keeps
  // the last module before backward — in practice the final MLP block).
  for (const auto* m : scope_stack_) {
    if (keep_scopes_.contains(m)) return true;
  }
  return false;
}

// ---------------------------------------------------------------------------
// pack (Alg. 1, lines 1-8)
// ---------------------------------------------------------------------------

graph::PackedValue TensorCache::pack(const Tensor& t) {
  // Line 2: weights, CPU tensors, and small tensors are registered as-is.
  if (is_weight(t)) {
    pack_passthrough(PassKind::weight);
    return t;
  }
  if (t.is_cpu()) {
    pack_passthrough(PassKind::cpu);
    return t;
  }
  if (t.numel() < config_.min_offload_elements) {
    pack_passthrough(PassKind::small);
    return t;
  }

  const TensorId id = ids_.get_id(t);  // line 3
  Record& rec = record();
  const modules::Module* scope =
      scope_stack_.empty() ? nullptr : scope_stack_.back();
  const auto [it, inserted] = rec.tracked.try_emplace(id);
  if (!inserted) {
    // Duplicate registration of the same tensor (e.g. the attention output
    // saved by both the flash core and the projection): extend the scope
    // list, do not issue more I/O (§III-C1).
    if (scope != nullptr) it->second.scopes.insert(scope);  // line 4
    pack_dedup();
    return id;
  }

  // A new entry: the next row of this step's table.
  const auto index = static_cast<std::uint32_t>(recorded_.size());
  recorded_.push_back(EntryInfo{id, t.label(), t.shape(), t.dtype(),
                                t.bytes()});
  table_ = recorded_;
  entries_.emplace_back();
  it->second.index = index;
  if (scope != nullptr) {
    it->second.scopes.insert(scope);
    // Record the save in the forward scope sequence (prefetch order).
    if (rec.sequence.empty() || rec.sequence.back().scope != scope) {
      rec.positions[scope].push_back(rec.sequence.size());
      rec.sequence.push_back(SequenceSlot{scope, {}});
    }
    rec.sequence.back().entries.push_back(index);
  }

  const bool budget_reached =
      rec.offloaded_bytes + t.bytes() > config_.offload_budget;  // line 5
  if (budget_reached || in_backward_ || in_keep_scope()) {
    keep(index, t,
         budget_reached ? KeepReason::budget
         : in_backward_ ? KeepReason::backward
                        : KeepReason::scope);  // line 6
    return id;
  }
  if (store(index, t)) rec.offloaded_bytes += t.bytes();  // line 7
  return id;  // line 8
}

// ---------------------------------------------------------------------------
// unpack (Alg. 1, lines 9-12)
// ---------------------------------------------------------------------------

Tensor TensorCache::unpack(const graph::PackedValue& value) {
  if (std::holds_alternative<Tensor>(value)) {
    unpack_passthrough();
    return std::get<Tensor>(value);  // line 10
  }
  const Record& rec = record();
  auto it = rec.tracked.find(std::get<TensorId>(value));
  util::expects(it != rec.tracked.end(),
                "unpack of unknown tensor id (record mismatch?)");
  Tensor result = unpack_entry(it->second.index);
  if (recorder_ != nullptr) {
    recorder_->cache_unpack_entry(it->second.index, result);
  }
  return result;
}

// ---------------------------------------------------------------------------
// module hooks
// ---------------------------------------------------------------------------

void TensorCache::on_forward_pre(modules::Module& m) {
  scope_stack_.push_back(&m);
  if (layer_set_.contains(&m)) {
    layer_scope_stack_.push_back(&m);
  }
}

void TensorCache::on_forward_post(modules::Module& m) {
  util::expects(!scope_stack_.empty() && scope_stack_.back() == &m,
                "scope stack corrupted in forward");
  scope_stack_.pop_back();
  if (!layer_scope_stack_.empty() && layer_scope_stack_.back() == &m) {
    layer_scope_stack_.pop_back();
  }
}

void TensorCache::on_backward_pre(modules::Module& m) {
  scope_stack_.push_back(&m);
  if (layer_set_.contains(&m)) {
    layer_scope_stack_.push_back(&m);
  }
  // Entering a module in backward: prefetch activations of upcoming modules
  // (reverse of the recorded forward order), §III-C2. Backward visits
  // scopes in reverse, so each visit consumes this scope's last remaining
  // forward position.
  Record& rec = record();
  auto pos_it = rec.positions.find(&m);
  if (pos_it != rec.positions.end() && !pos_it->second.empty()) {
    const std::size_t position = pos_it->second.back();
    pos_it->second.pop_back();
    prefetch_before(position);
  }
}

void TensorCache::on_backward_post(modules::Module& m) {
  util::expects(!scope_stack_.empty() && scope_stack_.back() == &m,
                "scope stack corrupted in backward");
  scope_stack_.pop_back();
  if (!layer_scope_stack_.empty() && layer_scope_stack_.back() == &m) {
    layer_scope_stack_.pop_back();
  }
  retire_scope(m);
}

void TensorCache::prefetch_before(std::size_t position) {
  // The whole candidate window goes to prefetch(), released entries
  // included: it re-checks each candidate's live state, and the recorder
  // compiles the window rather than the loads this step happened to take.
  const Record& rec = record();
  prefetch_scratch_.clear();
  std::size_t slot = position;
  for (int depth = 0; depth < config_.prefetch_lookahead && slot > 0;
       ++depth) {
    const std::vector<std::uint32_t>& saves = rec.sequence[--slot].entries;
    prefetch_scratch_.insert(prefetch_scratch_.end(), saves.begin(),
                             saves.end());
  }
  prefetch(prefetch_scratch_);
}

void TensorCache::retire_scope(const modules::Module& m) {
  // Drained entries release in TensorId order, the order their trims reach
  // the offloader and the SSD extents.
  Record& rec = record();
  for (auto it = rec.tracked.begin(); it != rec.tracked.end();) {
    it->second.scopes.erase(&m);
    if (!it->second.scopes.empty()) {
      ++it;
      continue;
    }
    const std::uint32_t index = it->second.index;
    it = rec.tracked.erase(it);
    release(index);
  }
}

// ---------------------------------------------------------------------------
// entry transitions — shared by the hooks above and step replay
// ---------------------------------------------------------------------------

void TensorCache::begin_replay(std::span<const EntryInfo> table) {
  on_step_begin();
  table_ = table;
  entries_.resize(table.size());
}

TensorCache::Entry& TensorCache::arm(std::uint32_t index) {
  Entry& e = entries_[index];
  util::expects(e.released, "entry packed twice");
  e.released = false;
  return e;
}

TensorCache::Entry* TensorCache::live_entry(std::uint32_t index,
                                            std::uint32_t epoch) {
  if (epoch != epoch_) return nullptr;
  Entry& e = entries_[index];
  return e.released ? nullptr : &e;
}

void TensorCache::pack_passthrough(PassKind kind) {
  ++stats_.packs;
  switch (kind) {
    case PassKind::weight:
      ++stats_.passthrough_weight;
      break;
    case PassKind::cpu:
      ++stats_.passthrough_cpu;
      break;
    case PassKind::small:
      ++stats_.passthrough_small;
      break;
  }
  if (recorder_ != nullptr) recorder_->cache_pack_passthrough(kind);
}

void TensorCache::pack_dedup() {
  ++stats_.packs;
  ++stats_.dedup_hits;
  if (recorder_ != nullptr) recorder_->cache_pack_dedup();
}

void TensorCache::keep(std::uint32_t index, const Tensor& t,
                       KeepReason reason) {
  ++stats_.packs;
  switch (reason) {
    case KeepReason::budget:
      ++stats_.kept_budget;
      break;
    case KeepReason::backward:
      ++stats_.kept_backward;
      break;
    case KeepReason::scope:
      ++stats_.kept_scope;
      break;
  }
  stats_.kept_bytes += table_[index].bytes;
  Entry& e = arm(index);
  e.state = EntryState::kept;
  e.strong = t;
  if (recorder_ != nullptr) recorder_->cache_pack_keep(t, index, reason);
}

bool TensorCache::store(std::uint32_t index, const Tensor& t) {
  ++stats_.packs;
  Entry& e = arm(index);
  // The recorder sees the *attempt*: replay re-attempts and takes whichever
  // branch the offloader's live state dictates.
  if (recorder_ != nullptr) recorder_->cache_pack_store(t, index);
  const EntryInfo& info = table_[index];
  auto store_done = offloader_.store(info.id, t, t.storage()->ready_event());
  if (!store_done) {
    // Offloader refused (e.g. pinned pool exhausted): fall back to keeping.
    ++stats_.kept_offloader_refused;
    stats_.kept_bytes += info.bytes;
    e.state = EntryState::kept;
    e.strong = t;
    return false;
  }

  ++stats_.offload_started;
  stats_.offloaded_bytes += info.bytes;
  e.state = EntryState::offloading;
  e.stored = true;
  e.strong = t;  // held until the store completes
  e.weak = tensor::WeakTensor(t);
  e.store_done = *store_done;
  (*store_done)->add_waiter([this, index, epoch = epoch_]() {
    Entry* entry = live_entry(index, epoch);
    if (entry == nullptr) return;  // released mid-store
    if (entry->state != EntryState::offloading) return;
    const EntryInfo& done = table_[index];
    if (offloader_.store_status(done.id)) {
      // Store permanently failed (degradation ladder: keep on GPU). The
      // strong reference was never dropped, so the tensor is still
      // resident; reclaim the dead offloader slot now so the same id can
      // be stored again on a later step (replay reuses the recorded ids),
      // and clear `stored` so release() doesn't release it a second time.
      ++stats_.kept_store_failed;
      stats_.kept_bytes += done.bytes;
      entry->state = EntryState::loaded;
      entry->stored = false;
      offloader_.release(done.id);
      return;
    }
    if (entry->forwarded) {
      // Data forwarding already handed the in-memory reference to
      // backward; the tensor is both resident and on SSD.
      entry->state = EntryState::loaded;
    } else {
      // The paper's GC point: once offloading finishes the cache no longer
      // holds a reference, so Python (here: shared_ptr) reclaims the GPU
      // memory.
      entry->state = EntryState::offloaded;
      entry->strong.reset();
    }
  });
  return true;
}

void TensorCache::unpack_passthrough() {
  ++stats_.unpacks;
  if (recorder_ != nullptr) recorder_->cache_unpack_passthrough();
}

Tensor TensorCache::unpack_entry(std::uint32_t index) {
  ++stats_.unpacks;
  Entry& e = entries_[index];
  util::expects(!e.released, "unpack of a released entry");
  switch (e.state) {
    case EntryState::kept:
    case EntryState::loaded:
      util::check(e.strong.defined(), "kept entry lost its tensor");
      return e.strong;

    case EntryState::offloading: {
      // Data forwarding (§III-C2): the tensor is still in GPU memory while
      // the store drains; hand back the in-memory reference instead of
      // waiting for a round trip. The reference recovered from the weak
      // reference is stored for use by other scopes.
      if (config_.forwarding) {
        ++stats_.forwards;
        e.forwarded = true;
        e.strong = e.weak.lock();
        util::check(e.strong.defined(), "in-flight store lost its tensor");
        return e.strong;
      }
      // Forwarding disabled (ablation): serialise — wait for the store,
      // then read the data back; consumers gate on the reload completion.
      static const util::Label kSyncReload("sync-reload");
      const TensorId& id = table_[index].id;
      auto reloaded = sim::Completion::create(
          sim_, util::Label::tagged(kSyncReload, id.stamp, id.shape_key));
      // The closure captures a CompletionPtr; relocatable() keeps it on the
      // memcpy lane through the waiter chain and event ring.
      e.store_done->add_waiter(
          util::relocatable([this, index, epoch = epoch_, reloaded]() {
            // The consuming scope may already have retired the entry by the
            // time the store drains (its kernels are gated regardless); in
            // that case the reload is moot — just unblock the consumers.
            Entry* entry = live_entry(index, epoch);
            if (entry == nullptr) {
              reloaded->fire();
              return;
            }
            const EntryInfo& info = table_[index];
            auto ticket = offloader_.load(
                info.id, util::Label::suffixed(info.label, ".reload"),
                info.shape, info.dtype);
            entry->strong = ticket.tensor;  // keep the reloaded copy alive
            ticket.done->add_waiter(
                util::relocatable([reloaded]() { reloaded->fire(); }));
          }));
      ++stats_.miss_loads;
      e.strong = e.weak.lock();
      util::check(e.strong.defined(), "in-flight store lost its tensor");
      e.strong.storage()->set_ready_event(reloaded);
      return e.strong;
    }

    case EntryState::offloaded:
      // Prefetch miss: start the load now; the consumer kernels wait on the
      // load completion through the tensor's ready event (line 11,
      // load_or_wait_load).
      ++stats_.miss_loads;
      start_load(index);
      return e.strong;

    case EntryState::loading:
      util::check(e.strong.defined(), "loading entry lost its tensor");
      return e.strong;  // ready event still pending: consumers wait
  }
  util::unreachable("corrupt entry state");
}

void TensorCache::start_load(std::uint32_t index) {
  const EntryInfo& info = table_[index];
  auto ticket =
      offloader_.load(info.id, util::Label::suffixed(info.label, ".reload"),
                      info.shape, info.dtype);
  Entry& e = entries_[index];
  e.state = EntryState::loading;
  e.strong = ticket.tensor;
  ticket.done->add_waiter([this, index, epoch = epoch_]() {
    Entry* entry = live_entry(index, epoch);
    if (entry != nullptr && entry->state == EntryState::loading) {
      entry->state = EntryState::loaded;
    }
  });
}

void TensorCache::prefetch(std::span<const std::uint32_t> candidates) {
  for (const std::uint32_t index : candidates) {
    const Entry& e = entries_[index];
    if (e.released) continue;  // scope retired before this prefetch point
    if (e.state == EntryState::offloaded) {
      ++stats_.prefetch_loads;
      start_load(index);
    }
  }
  // Loads emit no ops, so reporting the window after them lands the
  // prefetch op at the same op-stream position.
  if (recorder_ != nullptr && !candidates.empty()) {
    recorder_->cache_prefetch(candidates);
  }
}

void TensorCache::release(std::uint32_t index) {
  Entry& e = entries_[index];
  util::expects(!e.released, "entry released twice");
  e.released = true;
  if (recorder_ != nullptr) recorder_->cache_release(index);
  ++stats_.releases;
  if (e.state == EntryState::offloading) {
    ++stats_.wasted_stores;
  }
  if (e.stored) {
    offloader_.release(table_[index].id);  // deferred if a store is in flight
  }
  e.strong.reset();  // last cache reference: GPU memory reclaimable
  e.weak = tensor::WeakTensor{};
}

}  // namespace ssdtrain::core
