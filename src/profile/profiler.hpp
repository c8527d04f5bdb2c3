// Functional profiler — the GPUOcelot stage of the TBPoint pipeline.
//
// Walks every thread block of every launch *functionally* (no timing model
// consulted anywhere), collecting per-block thread-instruction counts,
// warp-instruction counts and memory-request counts.  These three numbers
// are the entire input to both inter-launch feature vectors (paper Eq. 2)
// and intra-launch stall probabilities (Eq. 5), which is what makes the
// profile hardware-independent and one-time: re-targeting a different SM
// count or warp count never requires re-profiling, only re-clustering.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "trace/kernel.hpp"

namespace tbp::profile {

using trace::BlockStats;

struct LaunchProfile {
  std::vector<BlockStats> blocks;
  /// Warp-instruction counts per static basic block (whole-launch BBV).
  std::vector<std::uint64_t> bbv;

  [[nodiscard]] std::uint64_t total_thread_insts() const noexcept;
  [[nodiscard]] std::uint64_t total_warp_insts() const noexcept;
  [[nodiscard]] std::uint64_t total_mem_requests() const noexcept;
  /// Coefficient of variation of block sizes, where block size is the
  /// block's thread-instruction count (Eq. 2's fourth feature).
  [[nodiscard]] double block_size_cov() const;
};

/// Profiles one launch by functional traversal of its blocks.
[[nodiscard]] LaunchProfile profile_launch(const trace::LaunchTraceSource& launch);

/// A whole application: the profile of every kernel launch, in launch order.
struct ApplicationProfile {
  std::vector<LaunchProfile> launches;

  [[nodiscard]] std::uint64_t total_warp_insts() const noexcept;
  [[nodiscard]] std::uint64_t total_thread_insts() const noexcept;
  [[nodiscard]] std::uint64_t total_blocks() const noexcept;
};

/// Profiles every launch, up to `jobs` at a time.  Slots are indexed by
/// launch, so the profile is identical for every jobs value.
[[nodiscard]] ApplicationProfile profile_application(
    std::span<const trace::LaunchTraceSource* const> sources, std::size_t jobs);

}  // namespace tbp::profile
