// Property-style invariant sweep of the timing simulator: for randomized
// workload shapes and machine geometries, conservation and determinism
// properties must hold regardless of the parameter draw.
#include <gtest/gtest.h>

#include <cstdio>
#include <string_view>

#include "obs/metrics.hpp"
#include "profile/profiler.hpp"
#include "sim/gpu.hpp"
#include "stats/rng.hpp"
#include "trace/generator.hpp"

namespace tbp::sim {
namespace {

struct Draw {
  trace::SyntheticLaunch launch;
  GpuConfig config;
};

/// Randomizes a launch and machine from a seed; every parameter stays in a
/// range where the launch terminates quickly.
Draw draw(std::uint64_t seed) {
  stats::Rng rng(seed);
  trace::BlockBehavior b;
  b.loop_iterations = 2 + static_cast<std::uint32_t>(rng.below(8));
  b.alu_per_iteration = 1 + static_cast<std::uint32_t>(rng.below(6));
  b.sfu_per_iteration = static_cast<std::uint32_t>(rng.below(3));
  b.mem_per_iteration = static_cast<std::uint32_t>(rng.below(4));
  b.stores_per_iteration = static_cast<std::uint32_t>(rng.below(3));
  b.shared_per_iteration = static_cast<std::uint32_t>(rng.below(3));
  b.branch_divergence = rng.uniform(0.0, 0.5);
  b.lines_per_access = static_cast<std::uint8_t>(1 + rng.below(8));
  b.pattern = static_cast<trace::AddressPattern>(rng.below(3));
  b.working_set_lines = 1u << (8 + rng.below(8));
  b.region_base_line = rng.below(2) ? (1u << 20) : 0;
  b.barrier_per_iteration = rng.below(4) == 0;
  b.stride_lines = static_cast<std::uint32_t>(1 + rng.below(64));

  trace::KernelInfo kernel = trace::make_synthetic_kernel_info("prop");
  kernel.threads_per_block = 128u << rng.below(3);  // 128/256/512

  const auto n_blocks = static_cast<std::uint32_t>(8 + rng.below(60));
  // Jitter per block so blocks differ.
  const std::uint32_t base_iters = b.loop_iterations;
  auto behavior = [b, base_iters, seed](std::uint32_t block_id) {
    trace::BlockBehavior out = b;
    stats::Rng block_rng = stats::Rng(seed).substream(block_id);
    out.loop_iterations =
        base_iters + static_cast<std::uint32_t>(block_rng.below(3));
    return out;
  };

  GpuConfig config = fermi_config();
  config.n_sms = static_cast<std::uint32_t>(1 + rng.below(8));
  config.n_channels = static_cast<std::uint32_t>(1 + rng.below(6));
  config.l1_mshrs = static_cast<std::uint32_t>(8 + rng.below(64));
  return Draw{
      trace::SyntheticLaunch(kernel, n_blocks, seed ^ 0x5eed, behavior),
      config,
  };
}

class GpuInvariants : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(GpuInvariants, InstructionConservation) {
  const Draw d = draw(GetParam());
  const profile::LaunchProfile profile = profile::profile_launch(d.launch);
  GpuSimulator simulator(d.config);
  const LaunchResult result = simulator.run_launch(d.launch);
  // Every profiled instruction is simulated exactly once.
  EXPECT_EQ(result.sim_warp_insts, profile.total_warp_insts());
  EXPECT_EQ(result.sim_thread_insts, profile.total_thread_insts());
}

// An SM issues at most one warp instruction per cycle, so its exported
// issued-cycle counter is its instruction count, and the per-SM counters
// decompose the launch total.
TEST_P(GpuInvariants, PerSmDecomposition) {
  const Draw d = draw(GetParam());
  obs::MetricsShard metrics;
  RunOptions options;
  options.observe.metrics = &metrics;
  GpuSimulator simulator(d.config);
  const LaunchResult result = simulator.run_launch(d.launch, options);
  std::uint64_t issued = 0;
  for (std::uint32_t s = 0; s < d.config.n_sms; ++s) {
    char name[40];
    std::snprintf(name, sizeof name, "sim.sm.%02u.issued_cycles", s);
    const auto it = metrics.counters().find(std::string_view(name));
    ASSERT_NE(it, metrics.counters().end()) << name;
    issued += it->second;
  }
  EXPECT_EQ(issued, result.sim_warp_insts);
}

TEST_P(GpuInvariants, UnitsTileTheRun) {
  const Draw d = draw(GetParam());
  GpuSimulator simulator(d.config);
  const LaunchResult result = simulator.run_launch(d.launch);
  std::uint64_t unit_insts = 0;
  for (std::size_t i = 0; i < result.tb_units.size(); ++i) {
    unit_insts += result.tb_units[i].warp_insts;
    if (i > 0) {
      EXPECT_GE(result.tb_units[i].start_cycle,
                result.tb_units[i - 1].end_cycle);
    }
  }
  EXPECT_EQ(unit_insts, result.sim_warp_insts);
}

TEST_P(GpuInvariants, IpcWithinMachineBounds) {
  const Draw d = draw(GetParam());
  GpuSimulator simulator(d.config);
  const LaunchResult result = simulator.run_launch(d.launch);
  EXPECT_GT(result.machine_ipc(), 0.0);
  EXPECT_LE(result.machine_ipc(), static_cast<double>(d.config.n_sms));
}

TEST_P(GpuInvariants, DeterministicReplay) {
  const Draw d = draw(GetParam());
  GpuSimulator simulator(d.config);
  const LaunchResult a = simulator.run_launch(d.launch);
  const LaunchResult b = simulator.run_launch(d.launch);
  EXPECT_EQ(a.cycles, b.cycles);
  EXPECT_EQ(a.mem.l1.hits, b.mem.l1.hits);
  EXPECT_EQ(a.mem.dram.row_hits, b.mem.dram.row_hits);
}

TEST_P(GpuInvariants, MemoryStatsAreConsistent) {
  const Draw d = draw(GetParam());
  GpuSimulator simulator(d.config);
  const LaunchResult result = simulator.run_launch(d.launch);
  // DRAM never sees more loads than L1 misses produce.
  EXPECT_LE(result.mem.dram.loads, result.mem.l1.misses);
  // Every L2 load miss either allocated an L2 MSHR (one DRAM load) or
  // merged into one.
  EXPECT_EQ(result.mem.l2.misses,
            result.mem.dram.loads + result.mem.l2_mshr_merges);
}

INSTANTIATE_TEST_SUITE_P(RandomDraws, GpuInvariants,
                         ::testing::Range<std::uint64_t>(1, 13));

}  // namespace
}  // namespace tbp::sim
