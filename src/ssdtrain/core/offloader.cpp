#include "ssdtrain/core/offloader.hpp"

#include <utility>

#include "ssdtrain/fault/injector.hpp"
#include "ssdtrain/util/check.hpp"

namespace ssdtrain::core {

using tensor::Tensor;
using tensor::TensorId;
using FinishToken = sim::SimThreadPool::FinishToken;

namespace {

// Interned once; per-tensor identity rides in the Label's tag payload, so
// naming a transfer allocates nothing and renders ("store:t000042-...")
// only on demand.
util::Label store_label(const TensorId& id) {
  static const util::Label kPrefix("store");
  return util::Label::tagged(kPrefix, id.stamp, id.shape_key);
}

util::Label load_label(const TensorId& id) {
  static const util::Label kPrefix("load");
  return util::Label::tagged(kPrefix, id.stamp, id.shape_key);
}

util::Seconds backoff_for(const OffloadFaultPolicy& policy, int attempt) {
  // initial * multiplier^(attempt-1), computed by repeated multiplication so
  // the value is bit-stable across compilers (no libm pow variance).
  util::Seconds backoff = policy.initial_backoff;
  for (int i = 1; i < attempt; ++i) backoff *= policy.backoff_multiplier;
  return backoff;
}

/// Runs \p start once the attempt's setup delay has passed, or right away
/// for a tier whose flows start inside the attempt (no simulator event).
template <typename Start>
void after_setup(sim::Simulator& sim, std::optional<util::Seconds> setup,
                 Start start) {
  if (setup) {
    sim.schedule_after(*setup, std::move(start));
  } else {
    start();
  }
}

}  // namespace

// ---------------------------------------------------------------------------
// Tiers
// ---------------------------------------------------------------------------

SsdTier::SsdTier(hw::TrainingNode& node, int gpu_index, bool use_gds,
                 const CudaMallocHookLibrary* malloc_hook)
    : OffloadTier(gpu_index,
                  use_gds ? node.gds_write_path(gpu_index)
                          : node.bounce_write_path(gpu_index),
                  use_gds ? node.gds_read_path(gpu_index)
                          : node.bounce_read_path(gpu_index)),
      array_(node.array(gpu_index)),
      malloc_hook_(malloc_hook) {}

std::optional<Placement> SsdTier::allocate(util::Bytes bytes) {
  return array_.allocate_extent(bytes);
}

void SsdTier::free(const Placement& where) {
  array_.release_extent(std::get<hw::ArrayExtent>(where));
}

std::optional<util::Seconds> SsdTier::setup_latency() const {
  if (malloc_hook_ != nullptr) {
    return malloc_hook_->transfer_setup_latency(0);
  }
  // No hook library: unregistered buffers, pay the slow path. One shared
  // uninstalled instance — this runs per attempt, and constructing a
  // CudaMallocHookLibrary allocates its stats block.
  static const CudaMallocHookLibrary uninstalled;
  return uninstalled.transfer_setup_latency(0);
}

void SsdTier::record_write(const Placement& where) {
  array_.record_write(std::get<hw::ArrayExtent>(where));
}

void SsdTier::record_read(const Placement& where) {
  array_.record_read(std::get<hw::ArrayExtent>(where));
}

bool SsdTier::lost(const Placement& where) const {
  return array_.extent_lost(std::get<hw::ArrayExtent>(where));
}

HostTier::HostTier(hw::TrainingNode& node, int gpu_index)
    : OffloadTier(gpu_index, node.d2h_path(gpu_index),
                  node.h2d_path(gpu_index)),
      pool_(node.pinned_pool()) {}

std::optional<Placement> HostTier::allocate(util::Bytes bytes) {
  std::optional<hw::HostAllocation> allocation = pool_.allocate(bytes);
  if (!allocation) return std::nullopt;
  return *allocation;
}

void HostTier::free(const Placement& where) {
  pool_.free(std::get<hw::HostAllocation>(where));
}

std::optional<util::Seconds> HostTier::setup_latency() const {
  // Injected ssd-latency windows model NVMe-side stalls and do not apply
  // to the host DMA path; io-error windows do (a flaky PCIe link corrupts
  // D2H copies just as well).
  return std::nullopt;
}

// ---------------------------------------------------------------------------
// Engine
// ---------------------------------------------------------------------------

Offloader::Offloader(hw::TrainingNode& node, tensor::TensorFactory& factory,
                     std::unique_ptr<OffloadTier> tier,
                     OffloaderConfig config)
    : node_(node),
      factory_(factory),
      tier_(std::move(tier)),
      config_(config),
      store_pool_(node.simulator(), "offload-store",
                  static_cast<std::size_t>(config.store_workers)),
      load_pool_(node.simulator(), "offload-load",
                 static_cast<std::size_t>(config.load_workers)) {
  util::expects(tier_ != nullptr, "offloader needs a tier");
}

std::optional<sim::CompletionPtr> Offloader::store(const TensorId& id,
                                                   const Tensor& t,
                                                   sim::CompletionPtr ready) {
  util::expects(t.defined() && !t.is_cpu(), "store expects a device tensor");
  util::expects(!slots_.contains(id), "tensor already offloaded");

  std::optional<Placement> where = tier_->allocate(t.bytes());
  if (!where) {
    // The tier refused (the host tier's pinned pool is exhausted): the
    // tensor cache keeps the tensor on GPU.
    ++stats_.failed_stores;
    return std::nullopt;
  }
  slots_.emplace(id, Slot{std::move(*where), t});

  ++stats_.stores;
  stats_.bytes_stored += t.bytes();

  return store_pool_.submit(
      store_label(id), [this, id, ready](FinishToken finish) {
        auto begin_io = [this, id, finish]() { store_attempt(id, finish, 1); };
        if (ready && !ready->done()) {
          ready->add_waiter(std::move(begin_io));
        } else {
          begin_io();
        }
      });
}

Offloader::Attempt Offloader::begin_attempt() {
  Attempt a{tier_->setup_latency(), {}};
  fault::FaultInjector* injector = config_.fault.injector;
  if (injector == nullptr) return a;
  const int gpu = tier_->gpu_index();
  if (a.setup) {
    const util::Seconds extra = injector->extra_io_latency(gpu);
    if (extra > 0.0) {
      *a.setup += extra;
      stats_.fault_extra_latency += extra;
    }
  }
  a.error = injector->io_attempt(gpu);
  if (!a.error && a.setup && config_.fault.attempt_timeout > 0.0 &&
      *a.setup >= config_.fault.attempt_timeout) {
    a.error = IoError{IoErrorCode::timeout};
  }
  if (a.error) ++stats_.io_failures;
  return a;
}

void Offloader::retry(const Attempt& failed, int attempt, sim::EventFn next) {
  ++stats_.io_retries;
  const util::Seconds backoff = backoff_for(config_.fault, attempt);
  stats_.retry_backoff_time += backoff;
  node_.simulator().schedule_after(failed.setup.value_or(0.0) + backoff,
                                   std::move(next));
}

void Offloader::store_attempt(const TensorId& id, FinishToken finish,
                              int attempt) {
  const Attempt a = begin_attempt();
  if (a.error) {
    auto it = slot_of(id);
    // The aborted attempt still wrote up to the failure point: an SSD tier
    // charges the stripes anyway, so retries show up as extra write
    // amplification in the endurance model.
    tier_->record_write(it->second.where);
    if (attempt >= config_.fault.max_attempts) {
      // Retries exhausted: give up on offloading this tensor. The placement
      // never held valid data; the cache sees store_status() == data_lost
      // at store-done time and keeps the tensor on GPU instead.
      tier_->free(it->second.where);
      it->second.lost = true;
      ++stats_.store_faults;
      end_store(it);
      finish();
      return;
    }
    retry(a, attempt, [this, id, finish, attempt]() {
      store_attempt(id, finish, attempt + 1);
    });
    return;
  }
  after_setup(node_.simulator(), a.setup, [this, id, finish]() {
    const util::Bytes bytes = slot_of(id)->second.pin.bytes();
    node_.network().start_flow(store_label(id), bytes, tier_->write_path(),
                               [this, id, finish]() {
                                 auto it = slot_of(id);
                                 tier_->record_write(it->second.where);
                                 end_store(it);
                                 finish();
                               });
  });
}

LoadTicket Offloader::load(const TensorId& id, util::Label label,
                           tensor::TensorShape shape, tensor::DType dtype) {
  auto it = slots_.find(id);
  util::expects(it != slots_.end(), "load of tensor never stored");
  util::expects(!it->second.store_in_flight,
                "load while store in flight (forwarding should cover this)");

  Tensor dst = factory_.cuda(label, std::move(shape), dtype,
                             hw::MemoryTag::activation);
  auto done = sim::Completion::create(node_.simulator(), load_label(id));
  dst.storage()->set_ready_event(done);

  if (config_.fault.injector != nullptr &&
      (it->second.lost || tier_->lost(it->second.where))) {
    // The copy is unrecoverable (store never landed, or a RAID member
    // carrying its stripes dropped): skip the load pool entirely and
    // rematerialise. Not counted as a load — no bytes left the tier.
    schedule_recompute(done, dst);
    return LoadTicket{dst, done};
  }

  ++stats_.loads;
  stats_.bytes_loaded += dst.bytes();
  ++it->second.loads_in_flight;

  // Hold the destination alive until the data lands.
  load_pool_.submit(load_label(id), [this, id, done, pinned_dst = dst](
                                        FinishToken finish) mutable {
    load_attempt(id, done, std::move(pinned_dst), finish, 1);
  });
  return LoadTicket{dst, done};
}

void Offloader::load_attempt(const TensorId& id, sim::CompletionPtr done,
                             Tensor pinned_dst, FinishToken finish,
                             int attempt) {
  const Attempt a = begin_attempt();
  if (a.error) {
    if (attempt >= config_.fault.max_attempts) {
      // Retries exhausted: escalate down the ladder to recompute. The
      // bytes were charged optimistically at load() time; no data
      // actually left the tier.
      stats_.bytes_loaded -= pinned_dst.bytes();
      end_load(slot_of(id));
      schedule_recompute(std::move(done), std::move(pinned_dst));
      finish();
      return;
    }
    retry(a, attempt,
          [this, id, done = std::move(done),
           pinned_dst = std::move(pinned_dst), finish, attempt]() mutable {
            load_attempt(id, std::move(done), std::move(pinned_dst), finish,
                         attempt + 1);
          });
    return;
  }
  after_setup(
      node_.simulator(), a.setup,
      [this, id, done = std::move(done), pinned_dst = std::move(pinned_dst),
       finish]() mutable {
        const util::Bytes bytes = pinned_dst.bytes();
        node_.network().start_flow(
            load_label(id), bytes, tier_->read_path(),
            [this, id, done = std::move(done),
             pinned_dst = std::move(pinned_dst), finish]() mutable {
              auto it = slot_of(id);
              tier_->record_read(it->second.where);
              end_load(it);
              done->fire();
              pinned_dst.reset();
              finish();
            });
      });
}

void Offloader::schedule_recompute(sim::CompletionPtr done,
                                   Tensor pinned_dst) {
  // The cost is charged as a plain timer, not a compute-stream task —
  // consumers of `done` are already enqueued on that FIFO stream, and
  // queueing the recompute behind them would deadlock.
  const auto bytes = pinned_dst.bytes();
  const double per_byte = config_.fault.recompute_seconds_per_byte;
  const util::Seconds cost =
      per_byte > 0.0
          ? per_byte * static_cast<double>(bytes)
          : node_.gpu(tier_->gpu_index()).gpu->memory_time(bytes) * 4.0;
  ++stats_.load_faults;
  ++stats_.recompute_fallbacks;
  stats_.recompute_fallback_time += cost;
  node_.simulator().schedule_after(cost, [done, pinned_dst]() mutable {
    done->fire();
    pinned_dst.reset();
  });
}

void Offloader::release(const TensorId& id) {
  auto it = slots_.find(id);
  util::expects(it != slots_.end(), "release of unknown tensor");
  it->second.released = true;
  drop_if_released(it);
}

IoError Offloader::store_status(const TensorId& id) const {
  auto it = slots_.find(id);
  if (it != slots_.end() && it->second.lost) {
    return IoError{IoErrorCode::data_lost};
  }
  return {};
}

Offloader::SlotMap::iterator Offloader::slot_of(const TensorId& id) {
  auto it = slots_.find(id);
  util::check(it != slots_.end(), "offload slot vanished");
  return it;
}

void Offloader::end_store(SlotMap::iterator it) {
  // The transfer landed or the ladder gave up. The DMA pin goes last, once
  // a release that was waiting has freed the placement.
  Tensor pin = std::move(it->second.pin);
  it->second.store_in_flight = false;
  drop_if_released(it);
}

void Offloader::end_load(SlotMap::iterator it) {
  --it->second.loads_in_flight;
  drop_if_released(it);
}

void Offloader::drop_if_released(SlotMap::iterator it) {
  const Slot& slot = it->second;
  if (!slot.released || slot.store_in_flight || slot.loads_in_flight > 0) {
    return;
  }
  if (!slot.lost) tier_->free(slot.where);
  slots_.erase(it);
  ++stats_.releases;
}

}  // namespace ssdtrain::core
