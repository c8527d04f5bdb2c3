// Sampling hooks into the timing simulator.
//
// A SimController observes block dispatch/retire events and sampling-unit
// boundaries, and decides per block whether it is simulated in detail or
// fast-forwarded (skipped).  TBPoint's homogeneous-region sampler
// (src/core/region_sampler.hpp) is a SimController; a full simulation uses
// the default controller, which simulates everything.
#pragma once

#include <cstdint>

namespace tbp::sim {

enum class BlockAction : std::uint8_t {
  kSimulate,  ///< dispatch and simulate cycle-by-cycle
  kSkip,      ///< fast-forward: the block retires instantly, consuming nothing
};

/// One thread-block-delimited sampling unit (paper Section IV-B2): the
/// interval between the start and retirement of a designated block.  The
/// first designated block is the launch's first dispatched block; after a
/// designated block retires, the next block dispatched is designated (see
/// DESIGN.md "Known deviations from the paper").
struct SamplingUnit {
  std::uint64_t start_cycle = 0;
  std::uint64_t end_cycle = 0;
  std::uint64_t warp_insts = 0;    ///< issued machine-wide during the unit
  std::uint32_t end_block_id = 0;  ///< the designated block that closed it

  [[nodiscard]] double ipc() const noexcept {
    // end <= start also covers a malformed unit whose end precedes its
    // start, where the subtraction would wrap to ~2^64.
    if (end_cycle <= start_cycle) return 0.0;
    const std::uint64_t span = end_cycle - start_cycle;
    return static_cast<double>(warp_insts) / static_cast<double>(span);
  }
};

class SimController {
 public:
  virtual ~SimController() = default;

  /// Consulted once per block, in dispatch (block-id) order, before the
  /// block occupies any resource.
  [[nodiscard]] virtual BlockAction on_block_dispatch(std::uint32_t block_id,
                                                      std::uint64_t cycle) {
    (void)block_id;
    (void)cycle;
    return BlockAction::kSimulate;
  }

  virtual void on_block_retire(std::uint32_t block_id, std::uint64_t cycle,
                               bool was_skipped) {
    (void)block_id;
    (void)cycle;
    (void)was_skipped;
  }

  /// Fired when the designated block retires and its unit closes.
  virtual void on_sampling_unit(const SamplingUnit& unit) { (void)unit; }
};

}  // namespace tbp::sim
