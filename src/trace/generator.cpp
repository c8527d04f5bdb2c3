#include "trace/generator.hpp"

#include <algorithm>
#include <cassert>
#include <cstddef>
#include <utility>

#include "stats/rng.hpp"

namespace tbp::trace {
namespace {

/// Blocks are given disjoint default data partitions so streaming kernels
/// do not accidentally alias; workloads can override via region_base_line.
constexpr std::uint64_t kDefaultBlockPartitionLines = 1u << 10;

/// Builds the trace, reserving each warp's stream to its upper bound.
struct TraceSink {
  BlockTrace& trace;
  std::vector<WarpInst>* stream = nullptr;

  void begin_warp(std::uint32_t w, std::size_t max_insts) {
    stream = &trace.warps[w];
    stream->reserve(max_insts);
  }
  void push(const WarpInst& inst) { stream->push_back(inst); }
};

/// Counts what TraceSink would hold, without allocating.
struct CountSink {
  BlockStats stats;
  std::span<std::uint64_t> bbv;

  void begin_warp(std::uint32_t, std::size_t) {}
  void push(const WarpInst& inst) {
    stats.add(inst);
    ++bbv[inst.bb_id];
  }
};

template <typename Sink>
struct WarpEmitter {
  Sink& out;

  void alu(std::uint16_t bb, std::uint8_t active, bool fp) {
    out.push(WarpInst{.op = fp ? Op::kFloatAlu : Op::kIntAlu,
                      .active_threads = active,
                      .bb_id = bb,
                      .mem = {}});
  }

  void sfu(std::uint16_t bb, std::uint8_t active) {
    out.push(
        WarpInst{.op = Op::kSfu, .active_threads = active, .bb_id = bb, .mem = {}});
  }

  void global(std::uint16_t bb, std::uint8_t active, bool store, MemFootprint fp) {
    out.push(WarpInst{.op = store ? Op::kStoreGlobal : Op::kLoadGlobal,
                      .active_threads = active,
                      .bb_id = bb,
                      .mem = fp});
  }

  void shared(std::uint16_t bb, std::uint8_t active) {
    out.push(WarpInst{
        .op = Op::kLoadShared, .active_threads = active, .bb_id = bb, .mem = {}});
  }

  void barrier(std::uint16_t bb) {
    out.push(WarpInst{
        .op = Op::kBarrier, .active_threads = kWarpSize, .bb_id = bb, .mem = {}});
  }

  void exit(std::uint16_t bb) {
    out.push(WarpInst{
        .op = Op::kExit, .active_threads = kWarpSize, .bb_id = bb, .mem = {}});
  }
};

/// Emits block `block_id`'s warps, in order, into `sink`: the one
/// generator behind both block_trace and block_stats.  Every random draw is
/// made whatever the sink, so both sinks see the same instructions.
template <typename Sink>
void emit_block(const BlockBehavior& b, std::uint32_t block_id,
                std::uint64_t seed, std::size_t n_warps, Sink& sink) {
  assert(b.lines_per_access >= 1 && b.lines_per_access <= kWarpSize);

  const std::uint64_t block_base =
      b.region_base_line != 0
          ? b.region_base_line
          : std::uint64_t{block_id} * kDefaultBlockPartitionLines;

  // Prologue, epilogue and exit, plus every iteration taking the divergent
  // path.
  const std::size_t max_insts =
      4 + std::size_t{b.loop_iterations} *
              (std::size_t{b.alu_per_iteration} + b.sfu_per_iteration +
               b.mem_per_iteration + b.shared_per_iteration +
               b.stores_per_iteration + (b.barrier_per_iteration ? 1 : 0) +
               (b.branch_divergence > 0.0
                    ? std::size_t{b.alu_per_iteration} + b.mem_per_iteration
                    : 0));

  for (std::uint32_t w = 0; w < n_warps; ++w) {
    // Independent, reproducible stream per (launch seed, block, warp).
    stats::Rng rng =
        stats::Rng(seed).substream(block_id).substream(0xabcd0000u + w);
    sink.begin_warp(w, max_insts);
    WarpEmitter<Sink> emit{sink};

    // Prologue: thread-id computation, parameter loads.
    emit.alu(kBbPrologue, kWarpSize, false);
    emit.alu(kBbPrologue, kWarpSize, false);

    // Per-warp streaming cursor: warps advance through disjoint slices of
    // the block's partition.
    std::uint64_t stream_cursor =
        block_base + std::uint64_t{w} * std::max<std::uint64_t>(
                                            1, b.working_set_lines /
                                                   std::max<std::size_t>(
                                                       n_warps, 1));

    const auto make_footprint = [&](bool store) {
      MemFootprint fp;
      fp.n_lines = b.lines_per_access;
      switch (b.pattern) {
        case AddressPattern::kStreaming:
          fp.base_line = stream_cursor;
          fp.line_stride = 1;
          stream_cursor += b.lines_per_access;
          break;
        case AddressPattern::kStrided:
          fp.base_line = stream_cursor;
          fp.line_stride = b.stride_lines;
          stream_cursor += std::uint64_t{b.stride_lines} * b.lines_per_access;
          break;
        case AddressPattern::kRandom:
          fp.base_line =
              block_base + rng.below(std::max<std::uint64_t>(b.working_set_lines, 1));
          fp.line_stride = 1;
          break;
      }
      (void)store;
      return fp;
    };

    for (std::uint32_t iter = 0; iter < b.loop_iterations; ++iter) {
      const bool diverged =
          b.branch_divergence > 0.0 && rng.bernoulli(b.branch_divergence);
      // A taken divergent branch splits the warp: `taken` threads run the
      // divergent path, the rest re-run the main path.  Thread-instruction
      // counts stay comparable while warp-instruction counts grow — exactly
      // the control-flow-divergence signature Eq. 2's second feature
      // captures.
      const auto taken =
          diverged ? static_cast<std::uint8_t>(8 + rng.below(17)) : std::uint8_t{0};
      const auto main_active =
          diverged ? static_cast<std::uint8_t>(kWarpSize - taken)
                   : static_cast<std::uint8_t>(kWarpSize);

      for (std::uint32_t i = 0; i < b.alu_per_iteration; ++i) {
        emit.alu(kBbLoopAlu, main_active, (i % 2) == 1);
      }
      for (std::uint32_t i = 0; i < b.sfu_per_iteration; ++i) {
        emit.sfu(kBbLoopAlu, main_active);
      }
      for (std::uint32_t i = 0; i < b.mem_per_iteration; ++i) {
        emit.global(kBbLoopLoad, main_active, false, make_footprint(false));
      }
      if (diverged) {
        for (std::uint32_t i = 0; i < b.alu_per_iteration; ++i) {
          emit.alu(kBbDivergent, taken, (i % 2) == 0);
        }
        for (std::uint32_t i = 0; i < b.mem_per_iteration; ++i) {
          emit.global(kBbDivergent, taken, false, make_footprint(false));
        }
      }
      for (std::uint32_t i = 0; i < b.shared_per_iteration; ++i) {
        emit.shared(kBbLoopShared, main_active);
      }
      for (std::uint32_t i = 0; i < b.stores_per_iteration; ++i) {
        emit.global(kBbLoopStore, main_active, true, make_footprint(true));
      }
      if (b.barrier_per_iteration) emit.barrier(kBbLoopAlu);
    }

    emit.alu(kBbEpilogue, kWarpSize, false);
    emit.exit(kBbExit);
  }
}

}  // namespace

SyntheticLaunch::SyntheticLaunch(KernelInfo kernel, std::uint32_t n_blocks,
                                 std::uint64_t seed, BehaviorFn behavior)
    : kernel_(std::move(kernel)),
      n_blocks_(n_blocks),
      seed_(seed),
      behavior_(std::move(behavior)) {
  assert(kernel_.n_basic_blocks == kNumBasicBlocks);
  assert(behavior_);
}

BlockTrace SyntheticLaunch::block_trace(std::uint32_t block_id) const {
  assert(block_id < n_blocks_);
  BlockTrace result;
  result.warps.resize(kernel_.warps_per_block());
  TraceSink sink{.trace = result};
  emit_block(behavior_(block_id), block_id, seed_, result.warps.size(), sink);
  return result;
}

BlockStats SyntheticLaunch::block_stats(std::uint32_t block_id,
                                        std::span<std::uint64_t> bbv) const {
  assert(block_id < n_blocks_);
  CountSink sink{.stats = {}, .bbv = bbv};
  emit_block(behavior_(block_id), block_id, seed_, kernel_.warps_per_block(),
             sink);
  return sink.stats;
}

KernelInfo make_synthetic_kernel_info(std::string name) {
  KernelInfo info;
  info.name = std::move(name);
  info.threads_per_block = 256;
  info.registers_per_thread = 20;
  info.shared_mem_per_block = 4096;
  info.n_basic_blocks = kNumBasicBlocks;
  return info;
}

}  // namespace tbp::trace
