// Kernel IR: the trace-level representation of a GPGPU kernel shared by the
// functional profiler (src/profile) and the timing simulator (src/sim).
//
// A kernel launch is a grid of thread blocks; each block is a set of warps;
// each warp executes a linear stream of WarpInsts.  Control-flow divergence
// is resolved at trace-generation time (Macsim-style trace-driven
// simulation): a divergent branch shows up as additional warp instructions
// with reduced active-thread counts, never as per-thread control flow inside
// the simulator.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

namespace tbp::trace {

/// Bytes per memory line; all caches and DRAM operate on whole lines.
inline constexpr std::uint32_t kLineBytes = 128;
inline constexpr std::uint32_t kWarpSize = 32;

enum class Op : std::uint8_t {
  kIntAlu,       ///< integer ALU, short pipelined latency
  kFloatAlu,     ///< single-precision FP, short pipelined latency
  kSfu,          ///< transcendental / special-function, longer latency
  kLoadGlobal,   ///< global-memory load, goes through L1/L2/DRAM
  kStoreGlobal,  ///< global-memory store, write-through fire-and-forget
  kLoadShared,   ///< software-managed shared memory, fixed on-chip latency
  kBarrier,      ///< block-wide __syncthreads()
  kExit,         ///< last instruction of every warp stream
};

[[nodiscard]] constexpr bool is_global_memory(Op op) noexcept {
  return op == Op::kLoadGlobal || op == Op::kStoreGlobal;
}

/// Post-coalescing footprint of one warp-level memory instruction: the warp
/// touches `n_lines` lines starting at `base_line` with stride
/// `line_stride`.  n_lines == 1 is a fully coalesced access; n_lines == 32
/// is fully divergent (one line per thread).
struct MemFootprint {
  std::uint64_t base_line = 0;
  std::uint32_t line_stride = 1;
  std::uint8_t n_lines = 1;
};

struct WarpInst {
  Op op = Op::kIntAlu;
  std::uint8_t active_threads = kWarpSize;  ///< 1..32
  std::uint16_t bb_id = 0;                  ///< static basic block, for BBVs
  MemFootprint mem;                         ///< meaningful for global memory ops
};

/// All warp streams of one thread block.
struct BlockTrace {
  std::vector<std::vector<WarpInst>> warps;
};

/// What the functional profiler records for one thread block.
struct BlockStats {
  std::uint64_t thread_insts = 0;
  std::uint64_t warp_insts = 0;
  /// Line-level global-memory requests (the paper's "memory requests").
  std::uint64_t mem_requests = 0;

  /// Counts one warp instruction.
  void add(const WarpInst& inst) noexcept {
    ++warp_insts;
    thread_insts += inst.active_threads;
    if (is_global_memory(inst.op)) mem_requests += inst.mem.n_lines;
  }

  /// Eq. 5's per-block stall probability approximation:
  /// memory requests / warp instructions.
  [[nodiscard]] double stall_probability() const noexcept {
    return warp_insts == 0
               ? 0.0
               : static_cast<double>(mem_requests) / static_cast<double>(warp_insts);
  }
};

/// Counts a built trace and adds one to bbv[bb_id] per warp instruction;
/// an empty `bbv` counts no basic blocks.
[[nodiscard]] BlockStats count_block(const BlockTrace& block,
                                     std::span<std::uint64_t> bbv = {});

/// Static, launch-invariant facts about a kernel; the occupancy calculator
/// consumes the resource fields.
struct KernelInfo {
  std::string name;
  std::uint32_t threads_per_block = 256;
  std::uint32_t registers_per_thread = 20;
  std::uint32_t shared_mem_per_block = 4096;  ///< bytes
  std::uint16_t n_basic_blocks = 8;           ///< BBV dimensionality

  [[nodiscard]] std::uint32_t warps_per_block() const noexcept {
    return (threads_per_block + kWarpSize - 1) / kWarpSize;
  }
};

/// A launch-sized trace source.  Implementations must be deterministic and
/// side-effect free: block_trace(b) returns the same trace every time it is
/// called, so the simulator can generate traces lazily at dispatch and drop
/// them at block retirement, and the profiler can walk the same launch
/// independently.
class LaunchTraceSource {
 public:
  virtual ~LaunchTraceSource() = default;

  [[nodiscard]] virtual const KernelInfo& kernel() const = 0;
  [[nodiscard]] virtual std::uint32_t n_blocks() const = 0;
  [[nodiscard]] virtual BlockTrace block_trace(std::uint32_t block_id) const = 0;

  /// Block `block_id`'s counts, adding one to bbv[bb_id] per warp
  /// instruction; `bbv` holds kernel().n_basic_blocks entries.  Must equal
  /// count_block(block_trace(block_id), bbv), which is the default; a source
  /// overrides it only to count without building the trace.
  [[nodiscard]] virtual BlockStats block_stats(std::uint32_t block_id,
                                               std::span<std::uint64_t> bbv) const {
    return count_block(block_trace(block_id), bbv);
  }
};

}  // namespace tbp::trace
