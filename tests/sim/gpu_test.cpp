#include "sim/gpu.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <set>
#include <string>
#include <vector>

#include "obs/export.hpp"
#include "sim/controller.hpp"
#include "support/parallel.hpp"
#include "trace/generator.hpp"
#include "workloads/workload.hpp"

namespace tbp::sim {
namespace {

trace::BlockBehavior default_behavior() {
  trace::BlockBehavior b;
  b.loop_iterations = 4;
  b.alu_per_iteration = 3;
  b.mem_per_iteration = 1;
  b.stores_per_iteration = 1;
  b.lines_per_access = 2;
  b.pattern = trace::AddressPattern::kStreaming;
  return b;
}

trace::SyntheticLaunch make_launch(std::uint32_t n_blocks,
                                   trace::BlockBehavior behavior = default_behavior(),
                                   std::uint64_t seed = 11) {
  return trace::SyntheticLaunch(trace::make_synthetic_kernel_info("gpu_test"),
                                n_blocks, seed,
                                [behavior](std::uint32_t) { return behavior; });
}

GpuConfig small_config() {
  GpuConfig config = fermi_config();
  config.n_sms = 2;
  return config;
}

TEST(GpuTest, SimulatesEveryInstructionOfEveryBlock) {
  const trace::SyntheticLaunch launch = make_launch(10);
  std::uint64_t expected = 0;
  for (std::uint32_t b = 0; b < launch.n_blocks(); ++b) {
    expected += trace::count_block(launch.block_trace(b)).warp_insts;
  }
  GpuSimulator simulator(small_config());
  const LaunchResult result = simulator.run_launch(launch);
  EXPECT_EQ(result.sim_warp_insts, expected);
  EXPECT_TRUE(result.skipped_blocks.empty());
  EXPECT_GT(result.cycles, 0u);
}

TEST(GpuTest, MachineIpcWithinPhysicalBounds) {
  const trace::SyntheticLaunch launch = make_launch(12);
  const GpuConfig config = small_config();
  GpuSimulator simulator(config);
  const LaunchResult result = simulator.run_launch(launch);
  EXPECT_GT(result.machine_ipc(), 0.0);
  EXPECT_LE(result.machine_ipc(), static_cast<double>(config.n_sms));
}

TEST(GpuTest, DeterministicAcrossRuns) {
  const trace::SyntheticLaunch launch = make_launch(8);
  GpuSimulator simulator(small_config());
  const LaunchResult a = simulator.run_launch(launch);
  const LaunchResult b = simulator.run_launch(launch);
  EXPECT_EQ(a.cycles, b.cycles);
  EXPECT_EQ(a.sim_warp_insts, b.sim_warp_insts);
  ASSERT_EQ(a.tb_units.size(), b.tb_units.size());
  for (std::size_t i = 0; i < a.tb_units.size(); ++i) {
    EXPECT_EQ(a.tb_units[i].end_cycle, b.tb_units[i].end_cycle);
  }
}

TEST(GpuTest, OccupancyFieldsMatchCalculator) {
  const trace::SyntheticLaunch launch = make_launch(4);
  const GpuConfig config = small_config();
  GpuSimulator simulator(config);
  const LaunchResult result = simulator.run_launch(launch);
  EXPECT_EQ(result.sm_occupancy, 6u);  // 1536/256
  EXPECT_EQ(result.system_occupancy, 12u);
}

TEST(GpuTest, SamplingUnitsCoverSimulation) {
  const trace::SyntheticLaunch launch = make_launch(20);
  GpuSimulator simulator(small_config());
  const LaunchResult result = simulator.run_launch(launch);
  ASSERT_FALSE(result.tb_units.empty());
  // Units tile the simulation: instruction counts sum to the total issued
  // and windows are ordered without overlap.
  std::uint64_t unit_insts = 0;
  for (std::size_t i = 0; i < result.tb_units.size(); ++i) {
    unit_insts += result.tb_units[i].warp_insts;
    EXPECT_LE(result.tb_units[i].start_cycle, result.tb_units[i].end_cycle);
    if (i > 0) {
      EXPECT_GE(result.tb_units[i].start_cycle, result.tb_units[i - 1].end_cycle);
    }
  }
  EXPECT_EQ(unit_insts, result.sim_warp_insts);
}

TEST(GpuTest, FixedUnitsPartitionInstructions) {
  const trace::SyntheticLaunch launch = make_launch(20);
  GpuConfig config = small_config();
  config.fixed_unit_insts = 500;
  GpuSimulator simulator(config);
  const LaunchResult result = simulator.run_launch(launch);
  ASSERT_GT(result.fixed_units.size(), 1u);
  std::uint64_t total = 0;
  for (const FixedUnit& unit : result.fixed_units) {
    total += unit.warp_insts;
    std::uint64_t bbv_sum = 0;
    for (std::uint32_t v : unit.bbv) bbv_sum += v;
    EXPECT_EQ(bbv_sum, unit.warp_insts);  // BBV accounts for every inst
  }
  EXPECT_EQ(total, result.sim_warp_insts);
  // All units except the last are exactly the configured size (the meter
  // closes on the boundary; one issue per SM per cycle can overshoot by at
  // most n_sms - 1).
  for (std::size_t i = 0; i + 1 < result.fixed_units.size(); ++i) {
    EXPECT_GE(result.fixed_units[i].warp_insts, 500u);
    EXPECT_LT(result.fixed_units[i].warp_insts, 500u + config.n_sms);
  }
}

/// Controller that skips a fixed set of blocks.
class SkipSet final : public SimController {
 public:
  explicit SkipSet(std::set<std::uint32_t> skip) : skip_(std::move(skip)) {}

  BlockAction on_block_dispatch(std::uint32_t block_id, std::uint64_t) override {
    ++dispatch_calls_;
    return skip_.contains(block_id) ? BlockAction::kSkip : BlockAction::kSimulate;
  }

  void on_block_retire(std::uint32_t block_id, std::uint64_t, bool skipped) override {
    retired_.emplace_back(block_id, skipped);
  }

  std::set<std::uint32_t> skip_;
  std::vector<std::pair<std::uint32_t, bool>> retired_;
  int dispatch_calls_ = 0;
};

TEST(GpuTest, ControllerSkipsRequestedBlocks) {
  const trace::SyntheticLaunch launch = make_launch(10);
  SkipSet controller({2, 3, 7});
  GpuSimulator simulator(small_config());
  RunOptions options;
  options.controller = &controller;
  const LaunchResult result = simulator.run_launch(launch, options);

  EXPECT_EQ(result.skipped_blocks, (std::vector<std::uint32_t>{2, 3, 7}));
  // Skipped instructions are not simulated.
  std::uint64_t expected = 0;
  for (std::uint32_t b = 0; b < 10; ++b) {
    if (!controller.skip_.contains(b)) {
      expected += trace::count_block(launch.block_trace(b)).warp_insts;
    }
  }
  EXPECT_EQ(result.sim_warp_insts, expected);
  // The controller was consulted exactly once per block.
  EXPECT_EQ(controller.dispatch_calls_, 10);
  // Every block retired exactly once, with the right skip flag.
  EXPECT_EQ(controller.retired_.size(), 10u);
  for (const auto& [block, skipped] : controller.retired_) {
    EXPECT_EQ(skipped, controller.skip_.contains(block));
  }
}

TEST(GpuTest, SkippingEverythingCostsNoCycles) {
  const trace::SyntheticLaunch launch = make_launch(50);
  SkipSet controller([] {
    std::set<std::uint32_t> all;
    for (std::uint32_t b = 0; b < 50; ++b) all.insert(b);
    return all;
  }());
  GpuSimulator simulator(small_config());
  RunOptions options;
  options.controller = &controller;
  const LaunchResult result = simulator.run_launch(launch, options);
  EXPECT_EQ(result.sim_warp_insts, 0u);
  EXPECT_EQ(result.skipped_blocks.size(), 50u);
  EXPECT_LE(result.cycles, 1u);
}

TEST(GpuTest, SkippingHalfIsFasterThanFull) {
  const trace::SyntheticLaunch launch = make_launch(40);
  GpuSimulator simulator(small_config());
  const LaunchResult full = simulator.run_launch(launch);

  std::set<std::uint32_t> back_half;
  for (std::uint32_t b = 20; b < 40; ++b) back_half.insert(b);
  SkipSet controller(back_half);
  RunOptions options;
  options.controller = &controller;
  const LaunchResult sampled = simulator.run_launch(launch, options);
  EXPECT_LT(sampled.cycles, full.cycles);
  EXPECT_LT(sampled.sim_warp_insts, full.sim_warp_insts);
}

TEST(GpuTest, DesignatedBlocksAppearInDispatchOrder) {
  // Each new designated block is dispatched after the previous one retired,
  // so unit end-block ids strictly increase (the synthetic tail unit, if
  // any, uses the max sentinel and preserves the ordering).
  const trace::SyntheticLaunch launch = make_launch(30);
  GpuSimulator simulator(small_config());
  const LaunchResult result = simulator.run_launch(launch);
  ASSERT_GE(result.tb_units.size(), 2u);
  for (std::size_t i = 1; i < result.tb_units.size(); ++i) {
    EXPECT_GT(result.tb_units[i].end_block_id, result.tb_units[i - 1].end_block_id);
  }
}

TEST(GpuTest, BarrierKernelCompletes) {
  trace::BlockBehavior behavior = default_behavior();
  behavior.barrier_per_iteration = true;
  behavior.shared_per_iteration = 2;
  const trace::SyntheticLaunch launch = make_launch(6, behavior);
  GpuSimulator simulator(small_config());
  const LaunchResult result = simulator.run_launch(launch);
  EXPECT_GT(result.sim_warp_insts, 0u);
  EXPECT_TRUE(result.skipped_blocks.empty());
}

TEST(GpuTest, MemoryBoundKernelHasLowerIpc) {
  trace::BlockBehavior compute = default_behavior();
  compute.mem_per_iteration = 0;
  compute.stores_per_iteration = 0;
  compute.alu_per_iteration = 6;

  trace::BlockBehavior memory = default_behavior();
  memory.mem_per_iteration = 4;
  memory.lines_per_access = 16;
  memory.pattern = trace::AddressPattern::kRandom;
  memory.working_set_lines = 1u << 16;
  memory.region_base_line = 1u << 20;

  GpuSimulator simulator(small_config());
  const LaunchResult c = simulator.run_launch(make_launch(12, compute));
  const LaunchResult m = simulator.run_launch(make_launch(12, memory));
  EXPECT_GT(c.machine_ipc(), m.machine_ipc());
}

TEST(GpuTest, GtoSchedulerExecutesEverythingToo) {
  const trace::SyntheticLaunch launch = make_launch(20);
  GpuConfig rr = small_config();
  GpuConfig gto = small_config();
  gto.scheduler = WarpScheduler::kGreedyThenOldest;
  const LaunchResult a = GpuSimulator(rr).run_launch(launch);
  const LaunchResult b = GpuSimulator(gto).run_launch(launch);
  // Same work, both policies complete it; schedules (and usually cycle
  // counts) differ.
  EXPECT_EQ(a.sim_warp_insts, b.sim_warp_insts);
  EXPECT_EQ(a.sim_thread_insts, b.sim_thread_insts);
  EXPECT_GT(b.machine_ipc(), 0.0);
}

TEST(GpuTest, GtoSchedulerIsDeterministic) {
  const trace::SyntheticLaunch launch = make_launch(12);
  GpuConfig gto = small_config();
  gto.scheduler = WarpScheduler::kGreedyThenOldest;
  GpuSimulator simulator(gto);
  const LaunchResult a = simulator.run_launch(launch);
  const LaunchResult b = simulator.run_launch(launch);
  EXPECT_EQ(a.cycles, b.cycles);
}

TEST(GpuTest, MoreSmsFinishFaster) {
  const trace::SyntheticLaunch launch = make_launch(24);
  GpuConfig two = small_config();
  GpuConfig four = small_config();
  four.n_sms = 4;
  const LaunchResult r2 = GpuSimulator(two).run_launch(launch);
  const LaunchResult r4 = GpuSimulator(four).run_launch(launch);
  EXPECT_LT(r4.cycles, r2.cycles);
  EXPECT_EQ(r4.sim_warp_insts, r2.sim_warp_insts);
}

/// Every field of a launch result that simulate_launches must reproduce.
void expect_same_launch(const LaunchResult& a, const LaunchResult& b,
                        std::size_t launch) {
  SCOPED_TRACE("launch " + std::to_string(launch));
  EXPECT_EQ(a.cycles, b.cycles);
  EXPECT_EQ(a.sim_warp_insts, b.sim_warp_insts);
  EXPECT_EQ(a.sim_thread_insts, b.sim_thread_insts);
  ASSERT_EQ(a.tb_units.size(), b.tb_units.size());
  for (std::size_t u = 0; u < a.tb_units.size(); ++u) {
    EXPECT_EQ(a.tb_units[u].start_cycle, b.tb_units[u].start_cycle);
    EXPECT_EQ(a.tb_units[u].end_cycle, b.tb_units[u].end_cycle);
    EXPECT_EQ(a.tb_units[u].warp_insts, b.tb_units[u].warp_insts);
    EXPECT_EQ(a.tb_units[u].end_block_id, b.tb_units[u].end_block_id);
  }
  ASSERT_EQ(a.fixed_units.size(), b.fixed_units.size());
  for (std::size_t u = 0; u < a.fixed_units.size(); ++u) {
    EXPECT_EQ(a.fixed_units[u].start_cycle, b.fixed_units[u].start_cycle);
    EXPECT_EQ(a.fixed_units[u].end_cycle, b.fixed_units[u].end_cycle);
    EXPECT_EQ(a.fixed_units[u].warp_insts, b.fixed_units[u].warp_insts);
    EXPECT_EQ(a.fixed_units[u].thread_insts, b.fixed_units[u].thread_insts);
    EXPECT_EQ(a.fixed_units[u].bbv, b.fixed_units[u].bbv);
  }
  const auto fields = [](const MemoryStats& m) {
    return std::vector<std::uint64_t>{
        m.l1.hits,       m.l1.misses,       m.l1.evictions,
        m.l2.hits,       m.l2.misses,       m.l2.evictions,
        m.dram.row_hits, m.dram.row_misses, m.dram.loads,
        m.dram.stores,   m.dram.scheduling_decisions,
        m.l1_mshr_merges, m.l2_mshr_merges, m.l1_mshr_stalls,
        m.l2_mshr_overflows};
  };
  EXPECT_EQ(fields(a.mem), fields(b.mem));
}

TEST(GpuTest, SimulateLaunchesEqualsAFreshSimulatorPerLaunch) {
  workloads::WorkloadScale scale;
  scale.divisor = 64;
  const workloads::Workload workload = workloads::make_workload("black", scale);
  const std::vector<const trace::LaunchTraceSource*> sources = workload.sources();
  ASSERT_GT(sources.size(), 3u);
  GpuConfig config = small_config();
  config.fixed_unit_insts = 2000;

  std::vector<LaunchResult> fresh;
  for (const trace::LaunchTraceSource* source : sources) {
    fresh.push_back(GpuSimulator(config).run_launch(*source));
  }
  par::set_global_jobs(3);
  for (const std::size_t jobs : {std::size_t{1}, std::size_t{3}}) {
    SCOPED_TRACE("jobs " + std::to_string(jobs));
    obs::Observation session(/*metrics_on=*/true, /*trace_on=*/true);
    for (obs::Observation* observe : {static_cast<obs::Observation*>(nullptr),
                                      &session}) {
      const std::vector<LaunchResult> results =
          simulate_launches(sources, config, jobs, observe, "app/full/");
      ASSERT_EQ(results.size(), fresh.size());
      for (std::size_t i = 0; i < fresh.size(); ++i) {
        expect_same_launch(fresh[i], results[i], i);
      }
    }
    // Launch i recorded under the prefix plus its index, and nowhere else.
    for (std::size_t i = 0; i < sources.size(); ++i) {
      const obs::MetricsSnapshot shard =
          session.merged_metrics("app/full/" + obs::key_index(i));
      EXPECT_EQ(shard.counter("sim.launch.count"), std::uint64_t{1}) << i;
      EXPECT_EQ(shard.counter("sim.launch.cycles"), fresh[i].cycles) << i;
    }
    EXPECT_EQ(session.merged_metrics().counter("sim.launch.count"),
              std::uint64_t{sources.size()});
    EXPECT_EQ(session.merged_trace().front().args[0].second,
              obs::json_string("app/full/" + obs::key_index(0)));
  }
}

}  // namespace
}  // namespace tbp::sim
