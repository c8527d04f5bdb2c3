#include "trace/generator.hpp"

#include <gtest/gtest.h>

#include <set>

#include "trace/kernel.hpp"
#include "trace/validate.hpp"

namespace tbp::trace {
namespace {

BlockBehavior simple_behavior() {
  BlockBehavior b;
  b.loop_iterations = 5;
  b.alu_per_iteration = 3;
  b.sfu_per_iteration = 0;
  b.mem_per_iteration = 2;
  b.stores_per_iteration = 1;
  b.shared_per_iteration = 0;
  b.branch_divergence = 0.0;
  b.lines_per_access = 4;
  b.pattern = AddressPattern::kStreaming;
  return b;
}

SyntheticLaunch make_simple_launch(std::uint32_t n_blocks = 4,
                                   BlockBehavior behavior = simple_behavior(),
                                   std::uint64_t seed = 123) {
  return SyntheticLaunch(make_synthetic_kernel_info("test"), n_blocks, seed,
                         [behavior](std::uint32_t) { return behavior; });
}

TEST(GeneratorTest, WarpCountMatchesKernelInfo) {
  const SyntheticLaunch launch = make_simple_launch();
  const BlockTrace trace = launch.block_trace(0);
  EXPECT_EQ(trace.warps.size(), 8u);  // 256 threads / 32
}

TEST(GeneratorTest, InstructionCountMatchesBehaviorArithmetic) {
  const SyntheticLaunch launch = make_simple_launch();
  const BlockTrace trace = launch.block_trace(1);
  // Per warp: 2 prologue + 5 * (3 alu + 2 loads + 1 store) + epilogue + exit.
  const std::size_t expected_per_warp = 2 + 5 * (3 + 2 + 1) + 1 + 1;
  for (const auto& stream : trace.warps) {
    EXPECT_EQ(stream.size(), expected_per_warp);
  }
  EXPECT_EQ(count_block(trace).warp_insts, expected_per_warp * 8);
}

TEST(GeneratorTest, MemoryRequestCountUsesCoalescingDegree) {
  const SyntheticLaunch launch = make_simple_launch();
  const BlockTrace trace = launch.block_trace(0);
  // 5 iterations * (2 loads + 1 store) * 4 lines * 8 warps.
  EXPECT_EQ(count_block(trace).mem_requests, 5u * 3u * 4u * 8u);
}

TEST(GeneratorTest, NoDivergenceMeansFullWarps) {
  const SyntheticLaunch launch = make_simple_launch();
  const BlockTrace trace = launch.block_trace(2);
  for (const auto& stream : trace.warps) {
    for (const WarpInst& inst : stream) {
      EXPECT_EQ(inst.active_threads, kWarpSize);
    }
  }
  const BlockStats stats = count_block(trace);
  EXPECT_EQ(stats.thread_insts, stats.warp_insts * kWarpSize);
}

TEST(GeneratorTest, DeterministicAcrossCalls) {
  BlockBehavior behavior = simple_behavior();
  behavior.branch_divergence = 0.3;
  behavior.pattern = AddressPattern::kRandom;
  behavior.working_set_lines = 1024;
  const SyntheticLaunch launch = make_simple_launch(4, behavior);
  const BlockTrace a = launch.block_trace(3);
  const BlockTrace b = launch.block_trace(3);
  ASSERT_EQ(a.warps.size(), b.warps.size());
  for (std::size_t w = 0; w < a.warps.size(); ++w) {
    ASSERT_EQ(a.warps[w].size(), b.warps[w].size());
    for (std::size_t i = 0; i < a.warps[w].size(); ++i) {
      EXPECT_EQ(a.warps[w][i].op, b.warps[w][i].op);
      EXPECT_EQ(a.warps[w][i].active_threads, b.warps[w][i].active_threads);
      EXPECT_EQ(a.warps[w][i].mem.base_line, b.warps[w][i].mem.base_line);
    }
  }
}

TEST(GeneratorTest, DifferentBlocksDifferUnderRandomPattern) {
  BlockBehavior behavior = simple_behavior();
  behavior.pattern = AddressPattern::kRandom;
  behavior.working_set_lines = 1u << 16;
  behavior.region_base_line = 1000;
  const SyntheticLaunch launch = make_simple_launch(4, behavior);
  const BlockTrace a = launch.block_trace(0);
  const BlockTrace b = launch.block_trace(1);
  bool any_different = false;
  for (std::size_t i = 0; i < a.warps[0].size(); ++i) {
    if (a.warps[0][i].mem.base_line != b.warps[0][i].mem.base_line) {
      any_different = true;
      break;
    }
  }
  EXPECT_TRUE(any_different);
}

TEST(GeneratorTest, DivergenceAddsWarpInstsNotThreadInsts) {
  BlockBehavior straight = simple_behavior();
  BlockBehavior divergent = simple_behavior();
  divergent.branch_divergence = 1.0;  // every iteration splits

  const SyntheticLaunch a = make_simple_launch(1, straight);
  const SyntheticLaunch b = make_simple_launch(1, divergent);
  const BlockStats ta = count_block(a.block_trace(0));
  const BlockStats tb = count_block(b.block_trace(0));

  // The divergent version re-executes the body for the taken side, growing
  // warp instructions substantially...
  EXPECT_GT(tb.warp_insts, ta.warp_insts);
  // ...while thread instructions barely move: the alu/load body covers
  // main + taken = 32 threads across its two copies, and only the stores
  // (which run at reduced width) lose a few lanes.  This is exactly the
  // Eq. 2 signature: control-flow divergence separates the two counts.
  EXPECT_LE(tb.thread_insts, ta.thread_insts);
  EXPECT_GT(static_cast<double>(tb.thread_insts),
            0.85 * static_cast<double>(ta.thread_insts));
}

TEST(GeneratorTest, DivergentActiveCountsComplement) {
  BlockBehavior behavior = simple_behavior();
  behavior.branch_divergence = 1.0;
  const SyntheticLaunch launch = make_simple_launch(1, behavior);
  const BlockTrace trace = launch.block_trace(0);
  for (const auto& stream : trace.warps) {
    for (std::size_t i = 0; i < stream.size(); ++i) {
      if (stream[i].bb_id == kBbDivergent && i > 0) {
        // Active threads on both sides of a split sum to a full warp.
        // Find the matching main-path instruction earlier in the body.
        EXPECT_LT(stream[i].active_threads, kWarpSize);
      }
    }
  }
}

TEST(GeneratorTest, StreamingAddressesAdvanceMonotonically) {
  const SyntheticLaunch launch = make_simple_launch();
  const BlockTrace trace = launch.block_trace(0);
  for (const auto& stream : trace.warps) {
    std::uint64_t last = 0;
    for (const WarpInst& inst : stream) {
      if (is_global_memory(inst.op)) {
        EXPECT_GE(inst.mem.base_line, last);
        last = inst.mem.base_line;
      }
    }
  }
}

TEST(GeneratorTest, RandomAddressesStayInWorkingSet) {
  BlockBehavior behavior = simple_behavior();
  behavior.pattern = AddressPattern::kRandom;
  behavior.region_base_line = 5000;
  behavior.working_set_lines = 100;
  const SyntheticLaunch launch = make_simple_launch(2, behavior);
  const BlockTrace trace = launch.block_trace(1);
  for (const auto& stream : trace.warps) {
    for (const WarpInst& inst : stream) {
      if (is_global_memory(inst.op)) {
        EXPECT_GE(inst.mem.base_line, 5000u);
        EXPECT_LT(inst.mem.base_line, 5100u);
      }
    }
  }
}

TEST(GeneratorTest, StridedAddressesUseConfiguredStride) {
  BlockBehavior behavior = simple_behavior();
  behavior.pattern = AddressPattern::kStrided;
  behavior.stride_lines = 48;
  behavior.lines_per_access = 2;
  const SyntheticLaunch launch = make_simple_launch(1, behavior);
  const BlockTrace trace = launch.block_trace(0);
  for (const auto& stream : trace.warps) {
    for (const WarpInst& inst : stream) {
      if (is_global_memory(inst.op)) {
        EXPECT_EQ(inst.mem.line_stride, 48u);
        EXPECT_EQ(inst.mem.n_lines, 2u);
      }
    }
  }
}

TEST(GeneratorTest, WarpsUseDisjointStreamingSlices) {
  // Different warps of a block stream through different address ranges.
  BlockBehavior behavior = simple_behavior();
  behavior.working_set_lines = 1u << 12;
  const SyntheticLaunch launch = make_simple_launch(1, behavior);
  const BlockTrace trace = launch.block_trace(0);
  std::set<std::uint64_t> first_lines;
  for (const auto& stream : trace.warps) {
    for (const WarpInst& inst : stream) {
      if (is_global_memory(inst.op)) {
        first_lines.insert(inst.mem.base_line);
        break;
      }
    }
  }
  EXPECT_EQ(first_lines.size(), trace.warps.size());
}

TEST(GeneratorTest, EveryWarpEndsWithExit) {
  const SyntheticLaunch launch = make_simple_launch();
  const BlockTrace trace = launch.block_trace(0);
  for (const auto& stream : trace.warps) {
    ASSERT_FALSE(stream.empty());
    EXPECT_EQ(stream.back().op, Op::kExit);
    // Exactly one exit per warp.
    int exits = 0;
    for (const WarpInst& inst : stream) exits += inst.op == Op::kExit;
    EXPECT_EQ(exits, 1);
  }
}

TEST(GeneratorTest, BarrierEmittedPerIteration) {
  BlockBehavior behavior = simple_behavior();
  behavior.barrier_per_iteration = true;
  const SyntheticLaunch launch = make_simple_launch(1, behavior);
  const BlockTrace trace = launch.block_trace(0);
  for (const auto& stream : trace.warps) {
    int barriers = 0;
    for (const WarpInst& inst : stream) barriers += inst.op == Op::kBarrier;
    EXPECT_EQ(barriers, 5);
  }
}

TEST(GeneratorTest, SfuInstructionsEmitted) {
  BlockBehavior behavior = simple_behavior();
  behavior.sfu_per_iteration = 2;
  const SyntheticLaunch launch = make_simple_launch(1, behavior);
  const BlockTrace trace = launch.block_trace(0);
  int sfu = 0;
  for (const WarpInst& inst : trace.warps[0]) sfu += inst.op == Op::kSfu;
  EXPECT_EQ(sfu, 10);  // 2 per iteration * 5 iterations
}

// ---- Edge cases the fuzzer's random parameters reach ----

TEST(GeneratorTest, ZeroWorkingSetRandomPatternIsSafe) {
  // working_set_lines == 0 must not divide by zero (per-warp slice size) or
  // call below(0); every random access degenerates to the block base line.
  BlockBehavior behavior = simple_behavior();
  behavior.pattern = AddressPattern::kRandom;
  behavior.working_set_lines = 0;
  behavior.region_base_line = 7777;
  const SyntheticLaunch launch = make_simple_launch(2, behavior);
  const BlockTrace trace = launch.block_trace(1);
  for (const auto& stream : trace.warps) {
    for (const WarpInst& inst : stream) {
      if (is_global_memory(inst.op)) {
        EXPECT_EQ(inst.mem.base_line, 7777u);
      }
    }
  }
  EXPECT_TRUE(validate_block_trace(launch.kernel(), trace).ok());
}

TEST(GeneratorTest, ZeroWorkingSetStreamingPatternIsSafe) {
  BlockBehavior behavior = simple_behavior();
  behavior.pattern = AddressPattern::kStreaming;
  behavior.working_set_lines = 0;
  const SyntheticLaunch launch = make_simple_launch(1, behavior);
  const BlockTrace trace = launch.block_trace(0);
  EXPECT_GT(count_block(trace).mem_requests, 0u);
  EXPECT_TRUE(validate_block_trace(launch.kernel(), trace).ok());
}

TEST(GeneratorTest, CertainDivergenceSplitsEveryIteration) {
  // branch_divergence == 1.0: the divergent path executes on every
  // iteration, and the split never produces a zero-thread instruction.
  BlockBehavior behavior = simple_behavior();
  behavior.branch_divergence = 1.0;
  const SyntheticLaunch launch = make_simple_launch(1, behavior);
  const BlockTrace trace = launch.block_trace(0);
  for (const auto& stream : trace.warps) {
    std::uint32_t divergent_alu = 0;
    for (const WarpInst& inst : stream) {
      ASSERT_GE(inst.active_threads, 1u);
      ASSERT_LE(inst.active_threads, kWarpSize);
      if (inst.bb_id == kBbDivergent &&
          (inst.op == Op::kIntAlu || inst.op == Op::kFloatAlu)) {
        ++divergent_alu;
      }
    }
    // alu_per_iteration (3) copies per iteration, 5 iterations.
    EXPECT_EQ(divergent_alu, 15u);
  }
  EXPECT_TRUE(validate_block_trace(launch.kernel(), trace).ok());
}

TEST(GeneratorTest, SingleBlockLaunchIsWellFormed) {
  BlockBehavior behavior = simple_behavior();
  behavior.branch_divergence = 1.0;
  behavior.pattern = AddressPattern::kRandom;
  behavior.working_set_lines = 0;  // both edge cases composed
  const SyntheticLaunch launch = make_simple_launch(1, behavior, 991);
  ASSERT_EQ(launch.n_blocks(), 1u);
  const ValidationReport report = validate_launch(launch);
  EXPECT_TRUE(report.ok()) << report.summary();
  const BlockTrace trace = launch.block_trace(0);
  EXPECT_EQ(trace.warps.size(), launch.kernel().warps_per_block());
  for (const auto& stream : trace.warps) {
    ASSERT_FALSE(stream.empty());
    EXPECT_EQ(stream.back().op, Op::kExit);
  }
}

TEST(GeneratorTest, BasicBlockIdsWithinRange) {
  BlockBehavior behavior = simple_behavior();
  behavior.branch_divergence = 0.5;
  behavior.shared_per_iteration = 1;
  const SyntheticLaunch launch = make_simple_launch(2, behavior);
  const BlockTrace trace = launch.block_trace(0);
  for (const auto& stream : trace.warps) {
    for (const WarpInst& inst : stream) {
      EXPECT_LT(inst.bb_id, kNumBasicBlocks);
    }
  }
}

}  // namespace
}  // namespace tbp::trace
