// Tests for the offload engine over its SSD and host tiers: transfer timing
// over the simulated fabric, producer-gated stores, DMA pinning, gated
// loads, deferred releases, FIFO pools (each checked on both tiers), the
// GDS vs bounce-buffer paths, the pinned pool, and the CUDA malloc hook
// library.

#include <gtest/gtest.h>

#include <memory>

#include "ssdtrain/core/malloc_hook.hpp"
#include "ssdtrain/core/offloader.hpp"
#include "ssdtrain/hw/catalog.hpp"
#include "ssdtrain/tensor/tensor_id.hpp"
#include "ssdtrain/util/check.hpp"
#include "ssdtrain/util/units.hpp"
#include "test_support.hpp"

namespace core = ssdtrain::core;
namespace hw = ssdtrain::hw;
namespace t = ssdtrain::tensor;
namespace sim = ssdtrain::sim;
namespace u = ssdtrain::util;

using ssdtrain::testing::TierKind;

namespace {

class OffloaderTest : public ::testing::Test {
 protected:
  OffloaderTest()
      : node_(hw::catalog::single_gpu_node(2)),
        factory_(*node_.gpu(0).allocator) {}

  t::Tensor make_tensor(const char* name, u::Bytes mib_size = 256) {
    auto tensor = factory_.cuda(name, {u::mib(mib_size) / 2},
                                t::DType::fp16, hw::MemoryTag::activation);
    return tensor;
  }

  core::Offloader ssd_offloader(core::OffloaderConfig cfg = {}) {
    return core::Offloader(node_, factory_,
                           std::make_unique<core::SsdTier>(node_, 0), cfg);
  }

  core::Offloader host_offloader() {
    return core::Offloader(node_, factory_,
                           std::make_unique<core::HostTier>(node_, 0));
  }

  hw::TrainingNode node_;
  t::TensorFactory factory_;
  t::IdAssigner ids_;
};

/// Cases that hold on either tier: the engine, not the tier, provides them.
class OffloaderTierTest : public OffloaderTest,
                          public ::testing::WithParamInterface<TierKind> {
 protected:
  core::Offloader offloader(core::OffloaderConfig cfg = {}) {
    return core::Offloader(node_, factory_,
                           ssdtrain::testing::make_tier(GetParam(), node_),
                           cfg);
  }

  /// Bytes the tier under test currently holds.
  u::Bytes tier_live_bytes() {
    return GetParam() == TierKind::ssd ? node_.array(0).live_bytes()
                                       : node_.pinned_pool().used();
  }
};

INSTANTIATE_TEST_SUITE_P(
    Tiers, OffloaderTierTest,
    ::testing::Values(TierKind::ssd, TierKind::host),
    [](const ::testing::TestParamInfo<TierKind>& info) {
      return ssdtrain::testing::to_string(info.param);
    });

}  // namespace

TEST_F(OffloaderTest, StoreCompletesAtArrayBandwidth) {
  core::Offloader off = ssd_offloader();
  auto x = make_tensor("x", 1220);  // ~1.28 GB
  const auto id = ids_.get_id(x);
  auto done = off.store(id, x, nullptr);
  ASSERT_TRUE(done.has_value());
  node_.simulator().run();
  EXPECT_TRUE((*done)->done());
  // 2-SSD array writes at 12.2 GB/s; ~1.28 GB takes ~0.105 s.
  EXPECT_NEAR((*done)->completion_time(), 1.28e9 / 12.2e9, 0.01);
  EXPECT_EQ(off.stats().stores, 1u);
  EXPECT_EQ(off.stats().bytes_stored, x.bytes());
}

TEST_P(OffloaderTierTest, StoreWaitsForProducerKernel) {
  core::Offloader off = offloader();
  auto& s = node_.simulator();
  auto x = make_tensor("x");
  auto ready = sim::Completion::create(s, "producer");
  const auto id = ids_.get_id(x);
  auto done = off.store(id, x, ready);
  ASSERT_TRUE(done.has_value());
  s.schedule_at(1.0, [&] { ready->fire(); });
  s.run();
  // The transfer could not start before t=1.
  EXPECT_GT((*done)->completion_time(), 1.0);
}

TEST_P(OffloaderTierTest, StorePinsMemoryUntilTransferDone) {
  core::Offloader off = offloader();
  auto& alloc = *node_.gpu(0).allocator;
  const auto id = [&] {
    auto x = make_tensor("x");
    auto done = off.store(ids_.get_id(x), x, nullptr);
    (void)done;
    return ids_.get_id(x);
    // x handle drops here, but the DMA must still read the memory.
  }();
  (void)id;
  EXPECT_GT(alloc.live(hw::MemoryTag::activation), 0);
  node_.simulator().run();
  EXPECT_EQ(alloc.live(hw::MemoryTag::activation), 0);
}

TEST_P(OffloaderTierTest, LoadReturnsGatedTensor) {
  core::Offloader off = offloader();
  auto x = make_tensor("x");
  const auto id = ids_.get_id(x);
  off.store(id, x, nullptr);
  node_.simulator().run();

  auto ticket = off.load(id, "x.reload", x.shape(), x.dtype());
  EXPECT_TRUE(ticket.tensor.defined());
  EXPECT_FALSE(ticket.done->done());
  EXPECT_EQ(ticket.tensor.storage()->ready_event(), ticket.done);
  node_.simulator().run();
  EXPECT_TRUE(ticket.done->done());
  EXPECT_EQ(off.stats().loads, 1u);
}

TEST_F(OffloaderTest, ReleaseTrimsExtent) {
  core::Offloader off = ssd_offloader();
  auto x = make_tensor("x");
  const auto id = ids_.get_id(x);
  off.store(id, x, nullptr);
  node_.simulator().run();
  EXPECT_GT(node_.array(0).live_bytes(), 0);
  off.release(id);
  EXPECT_EQ(node_.array(0).live_bytes(), 0);
  EXPECT_EQ(off.stats().releases, 1u);
}

TEST_P(OffloaderTierTest, ReleaseDuringStoreIsDeferred) {
  core::Offloader off = offloader();
  auto x = make_tensor("x");
  const auto id = ids_.get_id(x);
  off.store(id, x, nullptr);
  off.release(id);  // store still in flight
  EXPECT_EQ(off.stats().releases, 0u);
  EXPECT_GT(tier_live_bytes(), 0);
  node_.simulator().run();
  EXPECT_EQ(off.stats().releases, 1u);
  EXPECT_EQ(tier_live_bytes(), 0);
}

TEST_P(OffloaderTierTest, ReleaseDuringLoadIsDeferred) {
  core::Offloader off = offloader();
  auto x = make_tensor("x");
  const auto id = ids_.get_id(x);
  off.store(id, x, nullptr);
  node_.simulator().run();
  auto ticket = off.load(id, "x.reload", x.shape(), x.dtype());
  off.release(id);  // load still reading the copy
  EXPECT_EQ(off.stats().releases, 0u);
  EXPECT_GT(tier_live_bytes(), 0);
  node_.simulator().run();
  EXPECT_TRUE(ticket.done->done());
  EXPECT_EQ(off.stats().releases, 1u);
  EXPECT_EQ(tier_live_bytes(), 0);
}

TEST_F(OffloaderTest, SequentialTensorWritesKeepWafNearOne) {
  core::Offloader off = ssd_offloader();
  for (int step = 0; step < 20; ++step) {
    auto x = make_tensor("x", 512);
    const auto id = ids_.get_id(x);
    off.store(id, x, nullptr);
    node_.simulator().run();
    off.release(id);
  }
  EXPECT_LT(node_.array(0).write_amplification(), 1.05);
}

TEST_P(OffloaderTierTest, DuplicateStoreRejected) {
  core::Offloader off = offloader();
  auto x = make_tensor("x");
  const auto id = ids_.get_id(x);
  off.store(id, x, nullptr);
  EXPECT_THROW(off.store(id, x, nullptr), u::ContractViolation);
}

TEST_F(OffloaderTest, BouncePathSlowerThanGds) {
  double t_gds = 0.0, t_bounce = 0.0;
  {
    hw::TrainingNode node(hw::catalog::single_gpu_node(4));
    t::TensorFactory factory(*node.gpu(0).allocator);
    core::Offloader off(node, factory,
                        std::make_unique<core::SsdTier>(node, 0));
    t::IdAssigner ids;
    auto x = factory.cuda("x", {u::gib(2) / 2}, t::DType::fp16,
                          hw::MemoryTag::activation);
    auto done = off.store(ids.get_id(x), x, nullptr);
    node.simulator().run();
    t_gds = (*done)->completion_time();
  }
  {
    hw::TrainingNode node(hw::catalog::single_gpu_node(4));
    t::TensorFactory factory(*node.gpu(0).allocator);
    core::Offloader off(node, factory,
                        std::make_unique<core::SsdTier>(node, 0,
                                                        /*use_gds=*/false));
    t::IdAssigner ids;
    auto x = factory.cuda("x", {u::gib(2) / 2}, t::DType::fp16,
                          hw::MemoryTag::activation);
    auto done = off.store(ids.get_id(x), x, nullptr);
    node.simulator().run();
    t_bounce = (*done)->completion_time();
  }
  EXPECT_GE(t_bounce, t_gds);
}

TEST_P(OffloaderTierTest, FifoPoolSerialisesStoresPerWorker) {
  core::OffloaderConfig cfg;
  cfg.store_workers = 1;
  core::Offloader off = offloader(cfg);
  auto a = make_tensor("a", 512);
  auto b = make_tensor("b", 512);
  auto da = off.store(ids_.get_id(a), a, nullptr);
  auto db = off.store(ids_.get_id(b), b, nullptr);
  node_.simulator().run();
  // One worker: b starts only after a finishes.
  EXPECT_GE((*db)->completion_time(),
            2.0 * (*da)->completion_time() * 0.99);
}

TEST_F(OffloaderTest, HostTierUsesPinnedPool) {
  node_.pinned_pool().resize(u::gib(2));
  core::Offloader off = host_offloader();
  auto x = make_tensor("x");
  const auto id = ids_.get_id(x);
  auto done = off.store(id, x, nullptr);
  ASSERT_TRUE(done.has_value());
  EXPECT_GT(node_.pinned_pool().used(), 0);
  node_.simulator().run();
  auto ticket = off.load(id, "x.back", x.shape(), x.dtype());
  node_.simulator().run();
  EXPECT_TRUE(ticket.done->done());
  off.release(id);
  EXPECT_EQ(node_.pinned_pool().used(), 0);
}

TEST_F(OffloaderTest, HostTierRefusesWhenPoolExhausted) {
  node_.pinned_pool().resize(u::mib(64));
  core::Offloader off = host_offloader();
  auto x = make_tensor("x", 256);  // larger than the pool
  const auto id = ids_.get_id(x);
  auto done = off.store(id, x, nullptr);
  EXPECT_FALSE(done.has_value());
  EXPECT_EQ(off.stats().failed_stores, 1u);
}

TEST(MallocHook, TracksRegistrations) {
  hw::DeviceAllocator alloc(u::gib(1));
  core::CudaMallocHookLibrary hook;
  hook.install(alloc);
  auto a = alloc.allocate(u::mib(100), hw::MemoryTag::activation);
  EXPECT_EQ(hook.registered_bytes(), a.bytes);
  EXPECT_EQ(hook.registrations(), 1u);
  alloc.free(a);
  EXPECT_EQ(hook.registered_bytes(), 0);
  EXPECT_EQ(hook.deregistrations(), 1u);
}

TEST(MallocHook, PreRegistrationCutsSetupLatency) {
  core::CudaMallocHookLibrary uninstalled;
  hw::DeviceAllocator alloc(u::gib(1));
  core::CudaMallocHookLibrary installed;
  installed.install(alloc);
  EXPECT_LT(installed.transfer_setup_latency(u::mib(256)),
            uninstalled.transfer_setup_latency(u::mib(256)) / 10.0);
}

TEST(MallocHook, DoubleInstallRejected) {
  hw::DeviceAllocator alloc(u::gib(1));
  core::CudaMallocHookLibrary hook;
  hook.install(alloc);
  EXPECT_THROW(hook.install(alloc), u::ContractViolation);
}
