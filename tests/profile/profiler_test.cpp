#include "profile/profiler.hpp"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "fuzz/generate.hpp"
#include "trace/generator.hpp"
#include "workloads/parametric.hpp"
#include "workloads/workload.hpp"

namespace tbp::profile {
namespace {

trace::BlockBehavior behavior(std::uint32_t iterations, std::uint32_t mem,
                              std::uint8_t lines) {
  trace::BlockBehavior b;
  b.loop_iterations = iterations;
  b.alu_per_iteration = 4;
  b.mem_per_iteration = mem;
  b.stores_per_iteration = 0;
  b.branch_divergence = 0.0;
  b.lines_per_access = lines;
  b.pattern = trace::AddressPattern::kStreaming;
  return b;
}

TEST(ProfilerTest, CountsMatchTraceArithmetic) {
  const trace::SyntheticLaunch launch(
      trace::make_synthetic_kernel_info("p"), 3, 1,
      [](std::uint32_t) { return behavior(4, 2, 4); });
  const LaunchProfile profile = profile_launch(launch);
  ASSERT_EQ(profile.blocks.size(), 3u);

  // Per warp: 2 + 4*(4+2) + 2 = 28 insts; 8 warps.
  const std::uint64_t per_block_warp_insts = 28 * 8;
  for (const BlockStats& b : profile.blocks) {
    EXPECT_EQ(b.warp_insts, per_block_warp_insts);
    EXPECT_EQ(b.thread_insts, per_block_warp_insts * 32);
    EXPECT_EQ(b.mem_requests, 4u * 2u * 4u * 8u);
  }
  EXPECT_EQ(profile.total_warp_insts(), per_block_warp_insts * 3);
}

TEST(ProfilerTest, StallProbabilityIsRequestsOverInsts) {
  BlockStats stats;
  stats.warp_insts = 200;
  stats.mem_requests = 50;
  EXPECT_DOUBLE_EQ(stats.stall_probability(), 0.25);
}

TEST(ProfilerTest, StallProbabilityOfEmptyBlockIsZero) {
  EXPECT_DOUBLE_EQ(BlockStats{}.stall_probability(), 0.0);
}

TEST(ProfilerTest, UniformBlocksHaveZeroCov) {
  const trace::SyntheticLaunch launch(
      trace::make_synthetic_kernel_info("p"), 5, 1,
      [](std::uint32_t) { return behavior(4, 1, 1); });
  EXPECT_DOUBLE_EQ(profile_launch(launch).block_size_cov(), 0.0);
}

TEST(ProfilerTest, VariedBlocksHavePositiveCov) {
  const trace::SyntheticLaunch launch(
      trace::make_synthetic_kernel_info("p"), 4, 1, [](std::uint32_t b) {
        return behavior(b % 2 == 0 ? 2 : 20, 1, 1);
      });
  EXPECT_GT(profile_launch(launch).block_size_cov(), 0.3);
}

TEST(ProfilerTest, BbvSumsToWarpInsts) {
  const trace::SyntheticLaunch launch(
      trace::make_synthetic_kernel_info("p"), 2, 7,
      [](std::uint32_t) { return behavior(6, 2, 2); });
  const LaunchProfile profile = profile_launch(launch);
  std::uint64_t bbv_total = 0;
  for (std::uint64_t v : profile.bbv) bbv_total += v;
  EXPECT_EQ(bbv_total, profile.total_warp_insts());
}

TEST(ProfilerTest, ApplicationAggregation) {
  const trace::SyntheticLaunch small(
      trace::make_synthetic_kernel_info("a"), 2, 1,
      [](std::uint32_t) { return behavior(2, 1, 1); });
  const trace::SyntheticLaunch large(
      trace::make_synthetic_kernel_info("b"), 3, 2,
      [](std::uint32_t) { return behavior(8, 1, 1); });
  ApplicationProfile app;
  app.launches.push_back(profile_launch(small));
  app.launches.push_back(profile_launch(large));
  EXPECT_EQ(app.total_blocks(), 5u);
  EXPECT_EQ(app.total_warp_insts(), app.launches[0].total_warp_insts() +
                                        app.launches[1].total_warp_insts());
}

TEST(ProfilerTest, ProfileIsIndependentOfHardwareKnobs) {
  // The profiler consumes only the trace; nothing here references GpuConfig
  // at the type level, which is the hardware-independence requirement.  The
  // test pins the invariant that two profiling passes agree exactly.
  const trace::SyntheticLaunch launch(
      trace::make_synthetic_kernel_info("p"), 6, 9, [](std::uint32_t b) {
        return behavior(3 + b, 1 + b % 3, static_cast<std::uint8_t>(1 + b % 4));
      });
  const LaunchProfile a = profile_launch(launch);
  const LaunchProfile b = profile_launch(launch);
  ASSERT_EQ(a.blocks.size(), b.blocks.size());
  for (std::size_t i = 0; i < a.blocks.size(); ++i) {
    EXPECT_EQ(a.blocks[i].warp_insts, b.blocks[i].warp_insts);
    EXPECT_EQ(a.blocks[i].thread_insts, b.blocks[i].thread_insts);
    EXPECT_EQ(a.blocks[i].mem_requests, b.blocks[i].mem_requests);
  }
}

/// Every block's counting-sink stats equal the base class's walk over the
/// block's built trace, field for field and BBV entry for entry.
void expect_block_stats_equal_trace_walk(const workloads::Workload& workload) {
  for (std::size_t l = 0; l < workload.launches.size(); ++l) {
    const trace::SyntheticLaunch& launch = *workload.launches[l];
    const std::size_t n_bbs = launch.kernel().n_basic_blocks;
    for (std::uint32_t b = 0; b < launch.n_blocks(); ++b) {
      std::vector<std::uint64_t> sink_bbv(n_bbs, 0);
      std::vector<std::uint64_t> walk_bbv(n_bbs, 0);
      const BlockStats sink = launch.block_stats(b, sink_bbv);
      const BlockStats walk = launch.LaunchTraceSource::block_stats(b, walk_bbv);
      ASSERT_EQ(sink.warp_insts, walk.warp_insts)
          << workload.name << " launch " << l << " block " << b;
      ASSERT_EQ(sink.thread_insts, walk.thread_insts)
          << workload.name << " launch " << l << " block " << b;
      ASSERT_EQ(sink.mem_requests, walk.mem_requests)
          << workload.name << " launch " << l << " block " << b;
      ASSERT_EQ(sink_bbv, walk_bbv)
          << workload.name << " launch " << l << " block " << b;
    }
  }
}

TEST(ProfilerTest, BlockStatsEqualsTraceWalk) {
  workloads::WorkloadScale scale;
  scale.divisor = 64;
  for (const std::string& name : workloads::buildable_workload_names()) {
    expect_block_stats_equal_trace_walk(workloads::make_workload(name, scale));
  }
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    expect_block_stats_equal_trace_walk(
        workloads::build_workload(fuzz::generate_spec(seed)));
  }
}

}  // namespace
}  // namespace tbp::profile
