// Tests for the SSD stack: FTL write amplification and wear levelling,
// device extent management, RAID0 striping, and the endurance model.
// The key property (paper §II-C): large sequential writes that are trimmed
// wholesale keep WAF ~= 1, while random overwrites drive WAF well above 1.

#include <gtest/gtest.h>

#include <stdexcept>

#include "ssdtrain/hw/catalog.hpp"
#include "ssdtrain/hw/ssd/endurance.hpp"
#include "ssdtrain/hw/ssd/ftl.hpp"
#include "ssdtrain/hw/ssd/nand.hpp"
#include "ssdtrain/hw/ssd/raid0.hpp"
#include "ssdtrain/hw/ssd/ssd_device.hpp"
#include "ssdtrain/sim/bandwidth_network.hpp"
#include "ssdtrain/sim/simulator.hpp"
#include "ssdtrain/util/check.hpp"
#include "ssdtrain/util/rng.hpp"
#include "ssdtrain/util/units.hpp"

namespace hw = ssdtrain::hw;
namespace sim = ssdtrain::sim;
namespace u = ssdtrain::util;

namespace {

hw::NandGeometry small_geometry() {
  // 64 blocks x 64 pages x 16 KiB = 64 MiB physical, ~12% OP.
  hw::NandGeometry geo;
  geo.page_size = u::kib(16);
  geo.pages_per_block = 64;
  geo.physical_blocks = 64;
  geo.over_provisioning = 0.125;
  geo.pe_cycle_limit = 1000;
  return geo;
}

}  // namespace

TEST(Nand, GeometryDerivesLogicalCapacity) {
  const auto geo = small_geometry();
  EXPECT_EQ(geo.block_size(), u::kib(16) * 64);
  EXPECT_EQ(geo.physical_capacity(), u::mib(64));
  EXPECT_EQ(geo.logical_pages(), static_cast<std::int64_t>(64 * 64 * 0.875));
}

TEST(Nand, MakeGeometryCoversRequestedCapacity) {
  const auto geo = hw::make_geometry(u::gb(1), hw::CellType::tlc, 0.07);
  EXPECT_GE(geo.logical_capacity(), u::gb(1));
  EXPECT_EQ(geo.pe_cycle_limit, 3000);
}

TEST(Nand, CellTypeEnduranceOrdering) {
  EXPECT_GT(hw::default_pe_cycle_limit(hw::CellType::slc),
            hw::default_pe_cycle_limit(hw::CellType::mlc));
  EXPECT_GT(hw::default_pe_cycle_limit(hw::CellType::mlc),
            hw::default_pe_cycle_limit(hw::CellType::tlc));
  EXPECT_GT(hw::default_pe_cycle_limit(hw::CellType::tlc),
            hw::default_pe_cycle_limit(hw::CellType::qlc));
}

TEST(Ftl, FreshSequentialWritesHaveUnitWaf) {
  hw::Ftl ftl(small_geometry());
  ftl.write_extent(0, ftl.logical_pages() / 2);
  EXPECT_DOUBLE_EQ(ftl.write_amplification(), 1.0);
  EXPECT_EQ(ftl.gc_runs(), 0);
}

TEST(Ftl, OffloadPatternKeepsWafNearOne) {
  // The tensor-cache pattern: write a large extent, read it in backward,
  // trim it, repeat. Even after many "steps" covering the whole device
  // several times over, GC finds fully-invalid blocks, so WAF stays ~1.
  hw::Ftl ftl(small_geometry());
  const std::int64_t extent_pages = 256;  // 4 MiB tensors
  const std::int64_t slots = ftl.logical_pages() / extent_pages;
  for (int step = 0; step < 200; ++step) {
    const std::int64_t slot = step % slots;
    ftl.write_extent(slot * extent_pages, extent_pages);
    ftl.trim_extent(slot * extent_pages, extent_pages);
  }
  EXPECT_LT(ftl.write_amplification(), 1.05);
}

TEST(Ftl, RandomOverwritesAmplifyWrites) {
  hw::Ftl ftl(small_geometry());
  u::Xoshiro256 rng(7);
  // Precondition: fill the whole logical space.
  ftl.write_extent(0, ftl.logical_pages());
  // JESD-style random overwrites (no trim).
  for (int i = 0; i < 200000; ++i) {
    ftl.write_page(static_cast<hw::Lpa>(rng.uniform_int(
        static_cast<std::uint64_t>(ftl.logical_pages()))));
  }
  EXPECT_GT(ftl.write_amplification(), 1.5);
  EXPECT_GT(ftl.gc_runs(), 0);
}

TEST(Ftl, TrimFreesPagesWithoutWriting) {
  hw::Ftl ftl(small_geometry());
  ftl.write_extent(0, 100);
  const auto media_before = ftl.media_pages_written();
  ftl.trim_extent(0, 100);
  EXPECT_EQ(ftl.media_pages_written(), media_before);
  EXPECT_FALSE(ftl.is_mapped(0));
  EXPECT_TRUE(ftl.is_mapped(100) == false);
}

TEST(Ftl, OverwriteInvalidatesOldCopy) {
  hw::Ftl ftl(small_geometry());
  ftl.write_page(5);
  ftl.write_page(5);
  EXPECT_EQ(ftl.host_pages_written(), 2);
  EXPECT_TRUE(ftl.is_mapped(5));
}

TEST(Ftl, WearLevelingKeepsEraseCountsTight) {
  hw::Ftl ftl(small_geometry());
  const std::int64_t extent_pages = 128;
  const std::int64_t slots = ftl.logical_pages() / extent_pages;
  for (int step = 0; step < 2000; ++step) {
    const std::int64_t slot = step % slots;
    ftl.write_extent(slot * extent_pages, extent_pages);
    ftl.trim_extent(slot * extent_pages, extent_pages);
  }
  EXPECT_GT(ftl.blocks_erased(), 0);
  // Wear spread: max-min erase gap stays small relative to the mean.
  EXPECT_LE(ftl.max_erase_count() - ftl.min_erase_count(), 4);
}

TEST(Ftl, WearFractionGrowsMonotonically) {
  hw::Ftl ftl(small_geometry());
  double last = ftl.wear_fraction();
  for (int step = 0; step < 50; ++step) {
    ftl.write_extent(0, ftl.logical_pages() / 4);
    ftl.trim_extent(0, ftl.logical_pages() / 4);
    const double now = ftl.wear_fraction();
    EXPECT_GE(now, last);
    last = now;
  }
  EXPECT_GT(last, 0.0);
  EXPECT_LT(last, 1.0);
}

// Fingerprints of the FTL's choices (which block opens, which block GC
// erases) read through its public counters: any change to block opening or
// victim selection moves media writes, GC runs or the erase-count spread.
// The values are the ones the original linear-scan FTL produced.
TEST(Ftl, RandomOverwriteFingerprintIsPinned) {
  hw::Ftl ftl(small_geometry());
  u::Xoshiro256 rng(7);
  const auto pages = static_cast<std::uint64_t>(ftl.logical_pages());
  const auto random_lpa = [&] {
    return static_cast<hw::Lpa>(rng.uniform_int(pages));
  };
  ftl.write_extent(0, ftl.logical_pages());
  for (int i = 0; i < 200000; ++i) ftl.write_page(random_lpa());
  for (int i = 0; i < 500; ++i) ftl.trim_page(random_lpa());
  for (int i = 0; i < 50000; ++i) ftl.write_page(random_lpa());
  EXPECT_EQ(ftl.host_pages_written(), 253584);
  EXPECT_EQ(ftl.media_pages_written(), 1344391);
  EXPECT_EQ(ftl.gc_runs(), 20945);
  EXPECT_EQ(ftl.blocks_erased(), 20945);
  EXPECT_EQ(ftl.min_erase_count(), 325);
  EXPECT_EQ(ftl.max_erase_count(), 328);
}

TEST(Ftl, OffloadPatternFingerprintIsPinned) {
  hw::Ftl ftl(small_geometry());
  const std::int64_t extent_pages = 128;
  const std::int64_t slots = ftl.logical_pages() / extent_pages;
  for (int step = 0; step < 2000; ++step) {
    const std::int64_t slot = step % slots;
    ftl.write_extent(slot * extent_pages, extent_pages);
    ftl.trim_extent(slot * extent_pages, extent_pages);
  }
  EXPECT_EQ(ftl.host_pages_written(), 256000);
  EXPECT_EQ(ftl.media_pages_written(), 256000);
  EXPECT_EQ(ftl.gc_runs(), 3938);
  EXPECT_EQ(ftl.min_erase_count(), 61);
  EXPECT_EQ(ftl.max_erase_count(), 62);
}

// A drive maps its tables at its first write; until then it reads as fresh
// and still range-checks every LPA.
TEST(Ftl, OutOfRangeLpaRejected) {
  hw::Ftl ftl(small_geometry());
  const hw::Lpa past_end = ftl.logical_pages();
  for (const hw::Lpa bad : {hw::Lpa{-1}, past_end}) {
    EXPECT_THROW(ftl.trim_page(bad), u::ContractViolation);
    EXPECT_THROW((void)ftl.is_mapped(bad), u::ContractViolation);
  }
  EXPECT_FALSE(ftl.is_mapped(0));
  EXPECT_FALSE(ftl.is_mapped(past_end - 1));
  ftl.trim_extent(0, past_end);
  EXPECT_EQ(ftl.min_erase_count(), 0);
  EXPECT_EQ(ftl.max_erase_count(), 0);
  EXPECT_EQ(ftl.wear_fraction(), 0.0);
  EXPECT_EQ(ftl.write_amplification(), 1.0);
  EXPECT_EQ(ftl.host_pages_written(), 0);
  EXPECT_EQ(ftl.media_pages_written(), 0);
  EXPECT_THROW(ftl.write_page(-1), u::ContractViolation);
  EXPECT_THROW(ftl.write_page(past_end), u::ContractViolation);
}

// With 5 PE cycles per block, GC retires victims until one's valid pages no
// longer fit in the free blocks left. The drive must report that as the
// documented worn-out error before erasing the victim, not fail an internal
// check with survivors half relocated. The counters fingerprint the free
// list as retirements shrink it.
TEST(Ftl, WornOutDriveThrowsRuntimeError) {
  auto geo = small_geometry();
  geo.pe_cycle_limit = 5;
  hw::Ftl ftl(geo);
  u::Xoshiro256 rng(7);
  const auto pages = static_cast<std::uint64_t>(ftl.logical_pages());
  ftl.write_extent(0, ftl.logical_pages());
  int overwrites = 0;
  hw::Lpa lpa = -1;
  bool worn_out = false;
  while (!worn_out && overwrites < 10000) {
    lpa = static_cast<hw::Lpa>(rng.uniform_int(pages));
    ++overwrites;
    try {
      ftl.write_page(lpa);
    } catch (const u::ContractViolation&) {
      FAIL() << "internal check failed at overwrite " << overwrites;
    } catch (const std::runtime_error&) {
      worn_out = true;
    }
  }
  ASSERT_TRUE(worn_out);
  EXPECT_EQ(overwrites, 3009);
  EXPECT_EQ(ftl.host_pages_written(), 6593);
  EXPECT_EQ(ftl.media_pages_written(), 20005);
  EXPECT_EQ(ftl.gc_runs(), 255);
  EXPECT_EQ(ftl.blocks_erased(), 255);
  EXPECT_EQ(ftl.retired_blocks(), 6);
  EXPECT_EQ(ftl.min_erase_count(), 3);
  EXPECT_EQ(ftl.max_erase_count(), 5);
  // The failed overwrite invalidated the old copy and mapped no new one.
  EXPECT_FALSE(ftl.is_mapped(lpa));
  // Every mapping still names a valid page: trimming them all frees whole
  // blocks, and GC can erase those to take new writes.
  ftl.trim_extent(0, ftl.logical_pages());
  EXPECT_NO_THROW(ftl.write_extent(0, geo.pages_per_block));
  EXPECT_TRUE(ftl.is_mapped(0));
}

TEST(SsdDevice, ExtentLifecycleAndAccounting) {
  sim::Simulator s;
  sim::BandwidthNetwork net(s);
  auto spec = hw::catalog::optane_p5800x_1600gb();
  spec.capacity = u::gb(16);  // small device for the test
  hw::SsdDevice ssd(net, spec);

  auto extent = ssd.allocate_extent(u::mib(256));
  EXPECT_GE(extent.page_count * spec.sim_page_size, u::mib(256));
  ssd.record_write(extent);
  EXPECT_EQ(ssd.host_bytes_written(), u::mib(256));
  EXPECT_DOUBLE_EQ(ssd.write_amplification(), 1.0);
  ssd.record_read(extent);
  EXPECT_EQ(ssd.host_bytes_read(), u::mib(256));
  ssd.release_extent(extent);
  EXPECT_EQ(ssd.live_bytes(), 0);
}

TEST(SsdDevice, FullDeviceThrows) {
  sim::Simulator s;
  sim::BandwidthNetwork net(s);
  auto spec = hw::catalog::optane_p5800x_1600gb();
  spec.capacity = u::gb(1);
  hw::SsdDevice ssd(net, spec);
  auto big = ssd.allocate_extent(static_cast<u::Bytes>(
      static_cast<double>(ssd.logical_capacity()) * 0.95));
  (void)big;
  EXPECT_THROW(ssd.allocate_extent(u::mib(200)), std::runtime_error);
}

TEST(SsdDevice, WriteChannelTracksSpecBandwidth) {
  sim::Simulator s;
  sim::BandwidthNetwork net(s);
  auto spec = hw::catalog::optane_p5800x_1600gb();
  spec.capacity = u::gb(16);
  hw::SsdDevice ssd(net, spec);
  EXPECT_DOUBLE_EQ(net.capacity(ssd.write_resource()),
                   spec.seq_write_bandwidth);
  // A sequential write keeps WAF at 1, so capacity is unchanged after
  // accounting.
  auto extent = ssd.allocate_extent(u::gb(1));
  ssd.record_write(extent);
  EXPECT_DOUBLE_EQ(net.capacity(ssd.write_resource()),
                   spec.seq_write_bandwidth);
}

TEST(Raid0, StripesBytesAcrossMembers) {
  sim::Simulator s;
  sim::BandwidthNetwork net(s);
  auto spec = hw::catalog::optane_p5800x_1600gb();
  spec.capacity = u::gb(16);
  hw::Raid0Array array(net, "arr", {spec, spec, spec, spec});
  EXPECT_EQ(array.member_count(), 4u);
  EXPECT_DOUBLE_EQ(array.nominal_write_bandwidth(),
                   4 * spec.seq_write_bandwidth);

  auto extent = array.allocate_extent(u::gib(1));
  array.record_write(extent);
  // Each member received ~1/4 of the payload (rounded up to the chunk).
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_NEAR(static_cast<double>(array.member(i).host_bytes_written()),
                static_cast<double>(u::gib(1)) / 4.0,
                static_cast<double>(u::kib(512)));
  }
  EXPECT_EQ(array.host_bytes_written(), u::gib(1) / 4 * 4);
  array.release_extent(extent);
  EXPECT_EQ(array.live_bytes(), 0);
}

TEST(Raid0, AggregateChannelIsMemberSum) {
  sim::Simulator s;
  sim::BandwidthNetwork net(s);
  auto spec = hw::catalog::optane_p5800x_1600gb();
  spec.capacity = u::gb(16);
  hw::Raid0Array array3(net, "a3", {spec, spec, spec});
  EXPECT_NEAR(net.capacity(array3.write_resource()), u::gbps(3 * 6.1), 1e6);
  EXPECT_NEAR(net.capacity(array3.read_resource()), u::gbps(3 * 7.2), 1e6);
}

TEST(Raid0, EnduranceConsumedTracksWorstMember) {
  sim::Simulator s;
  sim::BandwidthNetwork net(s);
  auto spec = hw::catalog::optane_p5800x_1600gb();
  spec.capacity = u::gb(4);
  hw::Raid0Array array(net, "arr", {spec, spec});
  auto extent = array.allocate_extent(u::gb(1));
  for (int i = 0; i < 10; ++i) array.record_write(extent);
  EXPECT_GT(array.endurance_consumed(), 0.0);
  EXPECT_LE(array.endurance_consumed(), 1.0);
}

TEST(Endurance, TbwConversionRoundTrips) {
  const auto rating = hw::EnduranceRating::from_tbw(u::tb(1), u::tb(600), 5.0);
  EXPECT_NEAR(rating.rated_host_writes(), 600e12, 1e9);
}

TEST(Endurance, SequentialWorkloadGetsJesdWafBonus) {
  const auto rating = hw::EnduranceRating::from_tbw(u::tb(1), u::tb(600), 5.0);
  hw::WorkloadAssumptions sequential;  // WAF 1, no retention relaxation
  const double budget = hw::lifetime_host_writes(rating, sequential);
  // 3-DWPD-class drives allow ~2.5x the rated sequential writes (paper
  // §II-C): exactly the jesd_waf/workload_waf ratio.
  EXPECT_NEAR(budget / rating.rated_host_writes(), 2.5, 1e-9);
}

TEST(Endurance, RetentionRelaxationMultipliesBudget) {
  const auto rating = hw::EnduranceRating::from_tbw(u::tb(1), u::tb(600), 5.0);
  const auto workload = hw::WorkloadAssumptions::ssdtrain_default();
  const double budget = hw::lifetime_host_writes(rating, workload);
  EXPECT_NEAR(budget / rating.rated_host_writes(), 2.5 * 86.0, 1e-6);
}

TEST(Endurance, LifespanFormulaMatchesPaper) {
  // t_life = S_endurance * t_step / S_activations.
  const double budget = 1e18;  // bytes
  const auto lifespan = hw::lifespan_seconds(budget, 10.0, u::tb(1));
  EXPECT_NEAR(lifespan, 1e18 / 1e12 * 10.0, 1.0);
}

TEST(Endurance, HigherWafShortensLife) {
  const auto rating = hw::EnduranceRating::from_tbw(u::tb(1), u::tb(600), 5.0);
  hw::WorkloadAssumptions seq;
  hw::WorkloadAssumptions random;
  random.workload_waf = 4.0;
  EXPECT_GT(hw::lifetime_host_writes(rating, seq),
            hw::lifetime_host_writes(rating, random));
}
