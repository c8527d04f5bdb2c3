// SM-level behaviours pinned through hand-built traces: barrier semantics,
// store-only kernels, warp-width edge cases, single-slot occupancy, and the
// latency arithmetic of individual instructions.
#include <gtest/gtest.h>

#include <string>

#include "obs/metrics.hpp"
#include "sim/gpu.hpp"
#include "trace/kernel.hpp"

namespace tbp::sim {
namespace {

using trace::BlockTrace;
using trace::KernelInfo;
using trace::Op;
using trace::WarpInst;

WarpInst make_inst(Op op, std::uint8_t active = 32) {
  return WarpInst{.op = op, .active_threads = active, .bb_id = 0, .mem = {}};
}

WarpInst load_lines(std::uint64_t base, std::uint8_t n_lines,
                    std::uint32_t stride = 1) {
  return WarpInst{
      .op = Op::kLoadGlobal,
      .active_threads = 32,
      .bb_id = 1,
      .mem = {.base_line = base, .line_stride = stride, .n_lines = n_lines}};
}

/// A launch whose every block runs the same hand-written warp streams.
class FixedTrace final : public trace::LaunchTraceSource {
 public:
  FixedTrace(KernelInfo kernel, std::uint32_t n_blocks, BlockTrace trace)
      : kernel_(std::move(kernel)), n_blocks_(n_blocks), trace_(std::move(trace)) {}

  [[nodiscard]] const KernelInfo& kernel() const override { return kernel_; }
  [[nodiscard]] std::uint32_t n_blocks() const override { return n_blocks_; }
  [[nodiscard]] BlockTrace block_trace(std::uint32_t) const override {
    return trace_;
  }

 private:
  KernelInfo kernel_;
  std::uint32_t n_blocks_;
  BlockTrace trace_;
};

KernelInfo one_warp_kernel() {
  KernelInfo k;
  k.name = "one_warp";
  k.threads_per_block = 32;
  k.registers_per_thread = 16;
  k.shared_mem_per_block = 0;
  k.n_basic_blocks = 4;
  return k;
}

GpuConfig one_sm_config() {
  GpuConfig config = fermi_config();
  config.n_sms = 1;
  return config;
}

TEST(SmBehaviorTest, SingleAluInstructionCostsIssuePlusDrain) {
  // One warp, one ALU inst + exit: exit issues after the ALU's dependent
  // latency expires.
  BlockTrace trace;
  trace.warps = {{make_inst(Op::kIntAlu), make_inst(Op::kExit)}};
  FixedTrace launch(one_warp_kernel(), 1, trace);
  const GpuConfig config = one_sm_config();
  const LaunchResult result = GpuSimulator(config).run_launch(launch);
  // ALU at cycle 0, exit at cycle lat.int_alu, +1 for the loop increment.
  EXPECT_EQ(result.cycles, config.lat.int_alu + 1);
}

TEST(SmBehaviorTest, SfuCostsMoreThanAlu) {
  BlockTrace alu;
  alu.warps = {{make_inst(Op::kIntAlu), make_inst(Op::kExit)}};
  BlockTrace sfu;
  sfu.warps = {{make_inst(Op::kSfu), make_inst(Op::kExit)}};
  const GpuConfig config = one_sm_config();
  const LaunchResult a =
      GpuSimulator(config).run_launch(FixedTrace(one_warp_kernel(), 1, alu));
  const LaunchResult b =
      GpuSimulator(config).run_launch(FixedTrace(one_warp_kernel(), 1, sfu));
  EXPECT_EQ(b.cycles - a.cycles, config.lat.sfu - config.lat.int_alu);
}

TEST(SmBehaviorTest, L1HitLatencyAppliesToCachedLoads) {
  // Two identical loads: the first misses to DRAM, the second hits L1.
  BlockTrace trace;
  trace.warps = {{load_lines(64, 1), load_lines(64, 1), make_inst(Op::kExit)}};
  const GpuConfig config = one_sm_config();
  const LaunchResult result =
      GpuSimulator(config).run_launch(FixedTrace(one_warp_kernel(), 1, trace));
  EXPECT_EQ(result.mem.l1.hits, 1u);
  EXPECT_EQ(result.mem.l1.misses, 1u);
  EXPECT_EQ(result.mem.dram.loads, 1u);
}

TEST(SmBehaviorTest, StoreOnlyKernelNeverStallsOnMemory) {
  BlockTrace trace;
  std::vector<WarpInst> stream;
  for (int i = 0; i < 10; ++i) {
    stream.push_back(WarpInst{
        .op = Op::kStoreGlobal,
        .active_threads = 32,
        .bb_id = 1,
        .mem = {.base_line = static_cast<std::uint64_t>(i * 100),
                .line_stride = 1,
                .n_lines = 4}});
  }
  stream.push_back(make_inst(Op::kExit));
  trace.warps = {stream};
  const GpuConfig config = one_sm_config();
  const LaunchResult result =
      GpuSimulator(config).run_launch(FixedTrace(one_warp_kernel(), 1, trace));
  // Fire-and-forget: each store costs only the issue latency, and the
  // launch ends without waiting for the write-through traffic to drain
  // (stores still queued at the end never reach the DRAM counters).
  EXPECT_LE(result.cycles, 10 * config.lat.store_issue + 2);
  EXPECT_GT(result.mem.dram.stores, 0u);
  EXPECT_LE(result.mem.dram.stores, 40u);
}

TEST(SmBehaviorTest, BarrierHoldsFastWarpForSlowWarp) {
  // Warp 0 reaches the barrier immediately; warp 1 does a DRAM round trip
  // first.  Warp 0's exit must wait for warp 1's arrival.
  KernelInfo k = one_warp_kernel();
  k.threads_per_block = 64;  // two warps
  BlockTrace trace;
  trace.warps = {
      {make_inst(Op::kBarrier), make_inst(Op::kExit)},
      {load_lines(0, 1), make_inst(Op::kBarrier), make_inst(Op::kExit)},
  };
  const GpuConfig config = one_sm_config();
  const LaunchResult result =
      GpuSimulator(config).run_launch(FixedTrace(k, 1, trace));
  // The run must last at least a full memory round trip (warp 1's load)
  // even though warp 0 had nothing to do.
  EXPECT_GT(result.cycles, static_cast<std::uint64_t>(config.lat.interconnect) * 2 +
                               config.dram.row_miss_cycles);
}

TEST(SmBehaviorTest, PartialWarpActiveCountsFlowIntoThreadInsts) {
  BlockTrace trace;
  trace.warps = {{make_inst(Op::kIntAlu, 7), make_inst(Op::kExit, 32)}};
  const LaunchResult result = GpuSimulator(one_sm_config())
                                  .run_launch(FixedTrace(one_warp_kernel(), 1, trace));
  EXPECT_EQ(result.sim_warp_insts, 2u);
  EXPECT_EQ(result.sim_thread_insts, 7u + 32u);
}

TEST(SmBehaviorTest, StridedFootprintTouchesDistinctSets) {
  // 8 lines with a large stride land in different cache sets; all miss.
  BlockTrace trace;
  trace.warps = {{load_lines(0, 8, 1024), make_inst(Op::kExit)}};
  const LaunchResult result = GpuSimulator(one_sm_config())
                                  .run_launch(FixedTrace(one_warp_kernel(), 1, trace));
  EXPECT_EQ(result.mem.l1.misses, 8u);
  EXPECT_EQ(result.mem.dram.loads, 8u);
}

TEST(SmBehaviorTest, OccupancyOneSerializesBlocks) {
  // A kernel whose shared memory allows one resident block: blocks run one
  // after another, so cycles scale ~linearly with block count.
  KernelInfo k = one_warp_kernel();
  k.shared_mem_per_block = 49152;  // the whole SM
  BlockTrace trace;
  trace.warps = {{make_inst(Op::kIntAlu), make_inst(Op::kIntAlu),
                  make_inst(Op::kExit)}};
  const GpuConfig config = one_sm_config();
  const LaunchResult one =
      GpuSimulator(config).run_launch(FixedTrace(k, 1, trace));
  const LaunchResult four =
      GpuSimulator(config).run_launch(FixedTrace(k, 4, trace));
  EXPECT_EQ(four.sm_occupancy, 1u);
  EXPECT_GE(four.cycles, one.cycles * 3);
}

/// A launch whose blocks each run their own hand-written warp streams.
class VaryingTrace final : public trace::LaunchTraceSource {
 public:
  VaryingTrace(KernelInfo kernel, std::vector<BlockTrace> traces)
      : kernel_(std::move(kernel)), traces_(std::move(traces)) {}

  [[nodiscard]] const KernelInfo& kernel() const override { return kernel_; }
  [[nodiscard]] std::uint32_t n_blocks() const override {
    return static_cast<std::uint32_t>(traces_.size());
  }
  [[nodiscard]] BlockTrace block_trace(std::uint32_t block_id) const override {
    return traces_[block_id];
  }

 private:
  KernelInfo kernel_;
  std::vector<BlockTrace> traces_;
};

// Regression: the GTO greedy cursor must not survive block retirement.  The
// old scheduler left gto_current_ pointing at the retired block's warp; when
// a new block was dispatched into the reused slot, the stale cursor made the
// scheduler "greedily" issue the brand-new block's warp ahead of an older
// block's equally-ready warp — inverting the Oldest tie-break.
//
// Hand-trace (int_alu=8, sfu=20, one warp per block, occupancy 2):
//   cycle 0: B0.alu (oldest)        cycle 1: B1.alu
//   cycle 8: B0.exit -> B0 retires with the greedy cursor on slot 0
//   cycle 9: B2 dispatched into slot 0; B1's warp is also ready (1+8).
//     fixed:   cursor invalidated -> Oldest picks B1.sfu at 9 (exit at 29)
//     pre-fix: stale cursor greedy-issues B2.alu at 9, pushing B1.sfu to 10
// B1's sfu->exit chain is the critical path, so the one-cycle inversion
// reaches the launch total: 30 cycles fixed, 31 with the stale cursor.
TEST(SmBehaviorTest, GtoCursorDoesNotFollowSlotReuse) {
  KernelInfo k = one_warp_kernel();
  k.shared_mem_per_block = 24576;  // half the SM: exactly two resident blocks
  BlockTrace short_block;          // B0, B2
  short_block.warps = {{make_inst(Op::kIntAlu), make_inst(Op::kExit)}};
  BlockTrace sfu_block;            // B1: the critical path
  sfu_block.warps = {{make_inst(Op::kIntAlu), make_inst(Op::kSfu),
                      make_inst(Op::kExit)}};
  GpuConfig config = one_sm_config();
  config.scheduler = WarpScheduler::kGreedyThenOldest;
  const LaunchResult result = GpuSimulator(config).run_launch(
      VaryingTrace(k, {short_block, sfu_block, short_block}));
  EXPECT_EQ(result.sm_occupancy, 2u);
  EXPECT_EQ(result.cycles, 30u);
}

TEST(SmBehaviorTest, WideBlocksUseAllWarpContexts) {
  KernelInfo k = one_warp_kernel();
  k.threads_per_block = 1024;  // 32 warps
  BlockTrace trace;
  trace.warps.assign(32, {make_inst(Op::kIntAlu), make_inst(Op::kExit)});
  const LaunchResult result =
      GpuSimulator(one_sm_config()).run_launch(FixedTrace(k, 2, trace));
  EXPECT_EQ(result.sim_warp_insts, 2u * 32u * 2u);
  EXPECT_EQ(result.sm_occupancy, 1u);  // 1536 threads cap
}

/// Cycles, warp instructions and the SM's stall buckets of one launch.
struct Schedule {
  std::uint64_t cycles = 0;
  std::uint64_t warp_insts = 0;
  std::vector<std::uint64_t> stalls;  ///< issued, memory, scoreboard, barrier, idle

  bool operator==(const Schedule&) const = default;
};

Schedule run_schedule(const GpuConfig& config,
                      const trace::LaunchTraceSource& launch) {
  obs::MetricsShard shard;
  RunOptions options;
  options.observe.metrics = &shard;
  const LaunchResult result = GpuSimulator(config).run_launch(launch, options);
  Schedule out{.cycles = result.cycles, .warp_insts = result.sim_warp_insts,
               .stalls = {}};
  for (const char* bucket :
       {"issued_cycles", "stall.memory", "stall.scoreboard", "stall.barrier",
        "stall.idle"}) {
    out.stalls.push_back(shard.counters().at(std::string("sim.sm.00.") + bucket));
  }
  return out;
}

// 16-warp blocks, 8 resident: 128 warp contexts, two words of each ready
// mask.  The expected schedules were recorded with the context scan the
// masks replaced.
TEST(SmBehaviorTest, TwoWordReadyMasksKeepTheSchedule) {
  KernelInfo k = one_warp_kernel();
  k.threads_per_block = 512;
  k.registers_per_thread = 8;
  std::vector<BlockTrace> traces(24);
  for (std::uint32_t b = 0; b < traces.size(); ++b) {
    traces[b].warps.resize(16);
    for (std::uint32_t w = 0; w < 16; ++w) {
      auto& stream = traces[b].warps[w];
      for (std::uint32_t i = 0; i < 3 + (b + w) % 4; ++i) {
        stream.push_back(make_inst(Op::kIntAlu));
        stream.push_back(load_lines(std::uint64_t{b} * 977 + w * 31 + i * 7,
                                    static_cast<std::uint8_t>(1 + w % 3)));
        stream.push_back(make_inst((w + i) % 3 == 0 ? Op::kSfu : Op::kFloatAlu));
      }
      stream.push_back(make_inst(Op::kBarrier));
      for (std::uint32_t i = 0; i < w % 5; ++i) {
        stream.push_back(make_inst(Op::kLoadShared));
      }
      stream.push_back(make_inst(Op::kExit));
    }
  }
  const VaryingTrace launch(k, traces);
  GpuConfig config = scaled_config(200, 1);
  ASSERT_EQ(GpuSimulator(config).run_launch(launch).sm_occupancy, 8u);

  const Schedule rr = run_schedule(config, launch);
  config.scheduler = WarpScheduler::kGreedyThenOldest;
  const Schedule gto = run_schedule(config, launch);
  EXPECT_EQ(rr, (Schedule{.cycles = 8915,
                           .warp_insts = 6672,
                           .stalls = {6672, 2209, 34, 0, 0}}));
  EXPECT_EQ(gto, (Schedule{.cycles = 9009,
                            .warp_insts = 6672,
                            .stalls = {6672, 2236, 101, 0, 0}}));
}

}  // namespace
}  // namespace tbp::sim
