// The RegionSampler state machine, driven by hand-crafted event sequences
// (no simulator involved): enter, warm, fast-forward, exit, finalize.
#include "core/region_sampler.hpp"

#include <gtest/gtest.h>

namespace tbp::core {
namespace {

using sim::BlockAction;
using sim::SamplingUnit;

/// 40 blocks, 100 warp insts each; blocks [8, 31] form region 0.
struct Fixture {
  Fixture() {
    launch.blocks.assign(40, profile::BlockStats{.thread_insts = 3200,
                                                 .warp_insts = 100,
                                                 .mem_requests = 20});
    table = RegionTable(
        40, {HomogeneousRegion{.region_id = 0, .start_block = 8, .end_block = 31}});
  }

  SamplingUnit unit(std::uint64_t start, std::uint64_t end,
                    std::uint64_t insts) const {
    return SamplingUnit{.start_cycle = start,
                        .end_cycle = end,
                        .warp_insts = insts,
                        .end_block_id = 0};
  }

  profile::LaunchProfile launch;
  RegionTable table;
};

TEST(RegionSamplerTest, StartsNormalAndSimulates) {
  Fixture f;
  RegionSampler sampler(f.launch, f.table);
  EXPECT_EQ(sampler.state(), RegionSampler::State::kNormal);
  EXPECT_EQ(sampler.on_block_dispatch(0, 0), BlockAction::kSimulate);
  EXPECT_EQ(sampler.state(), RegionSampler::State::kNormal);
}

TEST(RegionSamplerTest, EntersWarmingWhenRunningSetIsRegionOnly) {
  Fixture f;
  RegionSampler sampler(f.launch, f.table);
  // Non-region blocks dispatched and retired.
  for (std::uint32_t b = 0; b < 8; ++b) {
    EXPECT_EQ(sampler.on_block_dispatch(b, b), BlockAction::kSimulate);
  }
  for (std::uint32_t b = 0; b < 8; ++b) sampler.on_block_retire(b, 100, false);
  // Region blocks fill the machine.
  for (std::uint32_t b = 8; b < 12; ++b) {
    EXPECT_EQ(sampler.on_block_dispatch(b, 100 + b), BlockAction::kSimulate);
  }
  EXPECT_EQ(sampler.state(), RegionSampler::State::kWarming);
  EXPECT_EQ(sampler.current_region(), 0);
}

TEST(RegionSamplerTest, StragglerWithinToleranceStillEnters) {
  Fixture f;
  RegionSamplerOptions options;
  options.entry_fraction = 0.9;
  RegionSampler sampler(f.launch, f.table, options);
  // One non-region straggler among ten region blocks: 10/11 > 0.9.
  EXPECT_EQ(sampler.on_block_dispatch(2, 0), BlockAction::kSimulate);
  for (std::uint32_t b = 8; b < 18; ++b) {
    EXPECT_EQ(sampler.on_block_dispatch(b, b), BlockAction::kSimulate);
  }
  EXPECT_EQ(sampler.state(), RegionSampler::State::kWarming);
}

TEST(RegionSamplerTest, StrictEntryFractionBlocksStraggler) {
  Fixture f;
  RegionSamplerOptions options;
  options.entry_fraction = 1.0;  // the paper's strict rule
  RegionSampler sampler(f.launch, f.table, options);
  (void)sampler.on_block_dispatch(2, 0);
  for (std::uint32_t b = 8; b < 18; ++b) (void)sampler.on_block_dispatch(b, b);
  EXPECT_EQ(sampler.state(), RegionSampler::State::kNormal);
  // Straggler retires -> entry happens.
  sampler.on_block_retire(2, 50, false);
  EXPECT_EQ(sampler.state(), RegionSampler::State::kWarming);
}

/// Options used by the state-machine tests: the paper's 2-unit minimum
/// (the production default of 3 additionally discards the fill transient,
/// covered separately below).
RegionSamplerOptions two_unit_options() {
  RegionSamplerOptions options;
  options.min_warm_units = 2;
  return options;
}

/// Drives the sampler to the fast-forward state: 4 region blocks running,
/// two stable units observed.
void warm_to_fast_forward(RegionSampler& sampler, const Fixture& f) {
  for (std::uint32_t b = 8; b < 12; ++b) {
    ASSERT_EQ(sampler.on_block_dispatch(b, 10), BlockAction::kSimulate);
  }
  ASSERT_EQ(sampler.state(), RegionSampler::State::kWarming);
  sampler.on_sampling_unit(f.unit(20, 120, 500));   // ipc 5.0
  ASSERT_EQ(sampler.state(), RegionSampler::State::kWarming);
  sampler.on_sampling_unit(f.unit(120, 220, 510));  // ipc 5.1: within 10%
  ASSERT_EQ(sampler.state(), RegionSampler::State::kFastForward);
}

TEST(RegionSamplerTest, TwoStableUnitsTriggerFastForward) {
  Fixture f;
  RegionSampler sampler(f.launch, f.table, two_unit_options());
  warm_to_fast_forward(sampler, f);
}

TEST(RegionSamplerTest, DefaultMinWarmUnitsDiscardsFillTransient) {
  Fixture f;
  RegionSampler sampler(f.launch, f.table);  // default min_warm_units = 3
  for (std::uint32_t b = 8; b < 12; ++b) {
    (void)sampler.on_block_dispatch(b, 10);
  }
  sampler.on_sampling_unit(f.unit(20, 120, 500));   // fill transient
  sampler.on_sampling_unit(f.unit(120, 220, 510));  // stable pair already...
  // ...but the third unit is required before locking in.
  EXPECT_EQ(sampler.state(), RegionSampler::State::kWarming);
  sampler.on_sampling_unit(f.unit(220, 320, 505));
  EXPECT_EQ(sampler.state(), RegionSampler::State::kFastForward);
}

TEST(RegionSamplerTest, UnstableUnitsKeepWarming) {
  Fixture f;
  RegionSampler sampler(f.launch, f.table, two_unit_options());
  for (std::uint32_t b = 8; b < 12; ++b) (void)sampler.on_block_dispatch(b, 10);
  sampler.on_sampling_unit(f.unit(20, 120, 500));   // ipc 5.0
  sampler.on_sampling_unit(f.unit(120, 220, 300));  // ipc 3.0: 40% off
  EXPECT_EQ(sampler.state(), RegionSampler::State::kWarming);
  sampler.on_sampling_unit(f.unit(220, 320, 310));  // ipc 3.1: stable now
  EXPECT_EQ(sampler.state(), RegionSampler::State::kFastForward);
}

TEST(RegionSamplerTest, UnitsBeforeWarmingStartAreIgnored) {
  Fixture f;
  RegionSampler sampler(f.launch, f.table, two_unit_options());
  for (std::uint32_t b = 8; b < 12; ++b) (void)sampler.on_block_dispatch(b, 10);
  // Unit that started before the region was entered (start 5 < 10).
  sampler.on_sampling_unit(f.unit(5, 110, 500));
  sampler.on_sampling_unit(f.unit(110, 210, 500));
  // Only one unit counted so far -> still warming.
  EXPECT_EQ(sampler.state(), RegionSampler::State::kWarming);
}

TEST(RegionSamplerTest, FastForwardSkipsRegionBlocksAndAccounts) {
  Fixture f;
  RegionSampler sampler(f.launch, f.table, two_unit_options());
  warm_to_fast_forward(sampler, f);
  for (std::uint32_t b = 12; b < 20; ++b) {
    EXPECT_EQ(sampler.on_block_dispatch(b, 300), BlockAction::kSkip);
    sampler.on_block_retire(b, 300, true);
  }
  sampler.finalize();
  ASSERT_EQ(sampler.skipped_regions().size(), 1u);
  const SkippedRegion& s = sampler.skipped_regions()[0];
  EXPECT_EQ(s.region_id, 0);
  EXPECT_EQ(s.n_skipped_blocks, 8u);
  EXPECT_EQ(s.skipped_warp_insts, 800u);
  EXPECT_NEAR(s.predicted_ipc, 5.1, 1e-12);
  EXPECT_EQ(sampler.total_skipped_warp_insts(), 800u);
  EXPECT_EQ(sampler.total_skipped_blocks(), 8u);
}

TEST(RegionSamplerTest, NonRegionBlockExitsFastForward) {
  Fixture f;
  RegionSampler sampler(f.launch, f.table, two_unit_options());
  warm_to_fast_forward(sampler, f);
  (void)sampler.on_block_dispatch(12, 300);  // skipped
  // Block 32 is outside the region: exit, simulate it.
  EXPECT_EQ(sampler.on_block_dispatch(32, 400), BlockAction::kSimulate);
  EXPECT_EQ(sampler.state(), RegionSampler::State::kNormal);
  // The fast-forward record was flushed at exit.
  ASSERT_EQ(sampler.skipped_regions().size(), 1u);
  EXPECT_EQ(sampler.skipped_regions()[0].n_skipped_blocks, 1u);
}

TEST(RegionSamplerTest, FinalizeFlushesOpenRecord) {
  Fixture f;
  RegionSampler sampler(f.launch, f.table, two_unit_options());
  warm_to_fast_forward(sampler, f);
  (void)sampler.on_block_dispatch(13, 300);
  EXPECT_TRUE(sampler.skipped_regions().empty());
  sampler.finalize();
  EXPECT_EQ(sampler.skipped_regions().size(), 1u);
  // Idempotent.
  sampler.finalize();
  EXPECT_EQ(sampler.skipped_regions().size(), 1u);
}

TEST(RegionSamplerTest, MixedRunningSetLeavesWarming) {
  Fixture f;
  RegionSamplerOptions options;
  options.entry_fraction = 1.0;
  RegionSampler sampler(f.launch, f.table, options);
  for (std::uint32_t b = 8; b < 12; ++b) (void)sampler.on_block_dispatch(b, 10);
  EXPECT_EQ(sampler.state(), RegionSampler::State::kWarming);
  // A non-region block joins: warming aborts (units would be polluted).
  (void)sampler.on_block_dispatch(33, 20);
  EXPECT_EQ(sampler.state(), RegionSampler::State::kNormal);
}

TEST(RegionSamplerTest, NoRegionsMeansEverythingSimulated) {
  Fixture f;
  RegionTable empty(40, {});
  RegionSampler sampler(f.launch, empty);
  for (std::uint32_t b = 0; b < 40; ++b) {
    EXPECT_EQ(sampler.on_block_dispatch(b, b), BlockAction::kSimulate);
  }
  sampler.finalize();
  EXPECT_TRUE(sampler.skipped_regions().empty());
}

TEST(RegionSamplerTest, FinalTailBlocksAreSimulatedNotSkipped) {
  // Region [8, 31] runs to the end of a 32-block launch; with a 6-block
  // tail, blocks 26..31 must be simulated so the drain is measured.
  profile::LaunchProfile launch;
  launch.blocks.assign(32, profile::BlockStats{.thread_insts = 3200,
                                               .warp_insts = 100,
                                               .mem_requests = 20});
  RegionTable table(
      32, {HomogeneousRegion{.region_id = 0, .start_block = 8, .end_block = 31}});
  RegionSamplerOptions options = two_unit_options();
  options.simulate_final_tail_blocks = 6;
  RegionSampler sampler(launch, table, options);

  for (std::uint32_t b = 8; b < 12; ++b) {
    ASSERT_EQ(sampler.on_block_dispatch(b, 10), sim::BlockAction::kSimulate);
  }
  sampler.on_sampling_unit(SamplingUnit{
      .start_cycle = 20, .end_cycle = 120, .warp_insts = 500, .end_block_id = 8});
  sampler.on_sampling_unit(SamplingUnit{
      .start_cycle = 120, .end_cycle = 220, .warp_insts = 500, .end_block_id = 9});
  ASSERT_EQ(sampler.state(), RegionSampler::State::kFastForward);

  // Middle of the region: skipped.
  EXPECT_EQ(sampler.on_block_dispatch(12, 300), sim::BlockAction::kSkip);
  EXPECT_EQ(sampler.on_block_dispatch(25, 300), sim::BlockAction::kSkip);
  // Tail: simulated (26 + 6 >= 32).
  EXPECT_EQ(sampler.on_block_dispatch(26, 400), sim::BlockAction::kSimulate);
  EXPECT_EQ(sampler.on_block_dispatch(31, 400), sim::BlockAction::kSimulate);

  sampler.finalize();
  ASSERT_EQ(sampler.skipped_regions().size(), 1u);
  EXPECT_EQ(sampler.skipped_regions()[0].n_skipped_blocks, 2u);
}

// Regression for a determinism leak found by tbp-lint's unordered-iter
// audit: the dominant-region election used to walk an unordered_map, so a
// tie between two regions was broken by bucket order — which depends on
// the standard library, not the input.  The tally now goes through a
// sorted map: a tie must elect the smallest region id regardless of the
// order the blocks were dispatched in.
TEST(RegionSamplerTest, DominantRegionTieBreaksToSmallestIdDeterministically) {
  profile::LaunchProfile launch;
  launch.blocks.assign(20, profile::BlockStats{.thread_insts = 3200,
                                               .warp_insts = 100,
                                               .mem_requests = 20});
  const RegionTable table(
      20, {HomogeneousRegion{.region_id = 0, .start_block = 0, .end_block = 9},
           HomogeneousRegion{.region_id = 1, .start_block = 10, .end_block = 19}});
  RegionSamplerOptions options;
  options.entry_fraction = 0.5;  // a 2-of-4 tie is enough to enter

  const std::vector<std::vector<std::uint32_t>> dispatch_orders = {
      {0, 1, 10, 11},
      {10, 11, 0, 1},
      {10, 0, 11, 1},
  };
  for (const auto& order : dispatch_orders) {
    RegionSampler sampler(launch, table, options);
    for (const std::uint32_t block : order) {
      (void)sampler.on_block_dispatch(block, block);
    }
    EXPECT_EQ(sampler.state(), RegionSampler::State::kWarming);
    EXPECT_EQ(sampler.current_region(), 0)
        << "tie must resolve to the smallest region id for every "
           "dispatch order";
  }
}

}  // namespace
}  // namespace tbp::core
