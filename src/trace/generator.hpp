// Deterministic synthetic trace generation.
//
// The paper's workloads are real CUDA kernels traced through GPUOcelot /
// Macsim.  Offline we synthesise equivalent traces: a SyntheticLaunch is a
// LaunchTraceSource whose per-block behaviour (loop trip count, memory
// intensity, coalescing, divergence, address pattern) is given by a
// caller-supplied function of the block id.  Everything the sampling
// methodology observes — thread/warp instruction counts, memory request
// counts, their distribution across block ids and launches, and the timing
// behaviour they induce — is controlled through BlockBehavior, which is how
// src/workloads models the 12 Table VI benchmarks.
#pragma once

#include <cstdint>
#include <functional>
#include <span>

#include "trace/kernel.hpp"

namespace tbp::trace {

enum class AddressPattern : std::uint8_t {
  kStreaming,  ///< consecutive lines; DRAM row hits, little cache reuse
  kStrided,    ///< large stride; row misses, no reuse
  kRandom,     ///< uniform within a working set; cache reuse iff it fits
};

/// Per-block knobs.  A block's warps execute: prologue, `loop_iterations`
/// copies of a loop body, epilogue, exit.  The body mixes ALU work, global
/// loads/stores, optional shared-memory traffic and an optional divergent
/// path taken with probability `branch_divergence` per iteration.
struct BlockBehavior {
  std::uint32_t loop_iterations = 10;
  std::uint32_t alu_per_iteration = 6;
  std::uint32_t sfu_per_iteration = 0;  ///< transcendental ops (exp/log/sqrt)
  std::uint32_t mem_per_iteration = 2;
  std::uint32_t stores_per_iteration = 1;
  std::uint32_t shared_per_iteration = 0;
  double branch_divergence = 0.0;     ///< per-iteration probability
  std::uint8_t lines_per_access = 1;  ///< coalescing degree, 1..32
  AddressPattern pattern = AddressPattern::kStreaming;
  std::uint64_t working_set_lines = 1u << 14;  ///< for kRandom
  std::uint64_t region_base_line = 0;          ///< data partition of this block
  std::uint32_t stride_lines = 32;             ///< for kStrided
  bool barrier_per_iteration = false;
};

using BehaviorFn = std::function<BlockBehavior(std::uint32_t block_id)>;

/// Static basic-block ids emitted by the generator; KernelInfo for a
/// synthetic kernel must have n_basic_blocks == kNumBasicBlocks.
enum BasicBlockId : std::uint16_t {
  kBbPrologue = 0,
  kBbLoopAlu = 1,
  kBbLoopLoad = 2,
  kBbDivergent = 3,
  kBbLoopStore = 4,
  kBbLoopShared = 5,
  kBbEpilogue = 6,
  kBbExit = 7,
  kNumBasicBlocks = 8,
};

class SyntheticLaunch final : public LaunchTraceSource {
 public:
  /// `seed` makes the launch's stochastic choices (divergence rolls, random
  /// addresses) reproducible; two launches with equal (seed, behaviour)
  /// produce identical traces.
  SyntheticLaunch(KernelInfo kernel, std::uint32_t n_blocks, std::uint64_t seed,
                  BehaviorFn behavior);

  [[nodiscard]] const KernelInfo& kernel() const override { return kernel_; }
  [[nodiscard]] std::uint32_t n_blocks() const override { return n_blocks_; }
  [[nodiscard]] BlockTrace block_trace(std::uint32_t block_id) const override;
  /// Counts the instructions block_trace(block_id) would hold, with the
  /// same random draws, without building them.
  [[nodiscard]] BlockStats block_stats(std::uint32_t block_id,
                                       std::span<std::uint64_t> bbv) const override;

  [[nodiscard]] BlockBehavior behavior(std::uint32_t block_id) const {
    return behavior_(block_id);
  }

 private:
  KernelInfo kernel_;
  std::uint32_t n_blocks_;
  std::uint64_t seed_;
  BehaviorFn behavior_;
};

/// Default KernelInfo for synthetic kernels (256-thread blocks, 8 BBs).
[[nodiscard]] KernelInfo make_synthetic_kernel_info(std::string name);

}  // namespace tbp::trace
