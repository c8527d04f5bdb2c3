// Homogeneous region sampling (paper Section IV-B2): a SimController that
// implements the enter / warm / fast-forward / exit state machine on top of
// the homogeneous region table.
//
//  * Enter:  all concurrently running blocks belong to one region.
//  * Warm:   blocks are simulated as usual; when two consecutive
//            block-delimited sampling units agree within 10% IPC, cache
//            state is considered stable.
//  * Fast-forward: further blocks of the region are skipped; the region's
//            remaining IPC is predicted to be the last warming unit's IPC.
//  * Exit:   a dispatched block with a different region id ends the region;
//            simulation continues as usual.
#pragma once

#include <cstdint>
#include <map>
#include <span>
#include <unordered_map>
#include <vector>

#include "core/region.hpp"
#include "obs/metrics.hpp"
#include "obs/trace_event.hpp"
#include "profile/profiler.hpp"
#include "sim/controller.hpp"

namespace tbp::core {

struct RegionSamplerOptions {
  double warmup_ipc_tolerance = 0.1;  ///< paper: 10% unit-to-unit IPC agreement
  /// Units observed inside the region before the stability comparison can
  /// fire.  The paper's minimum is 2; the default of 3 discards the first
  /// unit, which for a region at the start of a launch measures the
  /// machine-fill and cold-cache transient rather than steady state.
  std::uint32_t min_warm_units = 3;
  /// Force fast-forward after this many warming units even without IPC
  /// agreement; 0 = never force (the paper's behaviour).
  std::uint32_t max_warm_units = 0;
  /// Fraction of concurrently running blocks that must belong to the same
  /// region for the region to be "entered".  The paper's rule is 1.0 (all
  /// of them), but a single long-running outlier block — which is outside
  /// every region and fully simulated either way — then blocks entry for
  /// its whole lifetime.  0.9 tolerates such stragglers while still
  /// requiring the machine to be dominated by the region's blocks.
  double entry_fraction = 0.9;
  /// When fast-forwarding a region that reaches the end of the launch,
  /// resume simulation for the final this-many blocks so the occupancy
  /// drain (the machine emptying out) is simulated rather than charged at
  /// the steady-state IPC.  0 means "driver default": run_tbpoint fills in
  /// the system occupancy.  A sampler constructed directly with 0 applies
  /// no tail correction (the paper's behaviour).
  std::uint32_t simulate_final_tail_blocks = 0;
};

/// Per fast-forwarded stretch of a region: the IPC the sampler locked in and
/// the profiled work it skipped.  Reconstruction charges the skipped work
/// `skipped_warp_insts / predicted_ipc` cycles.
struct SkippedRegion {
  int region_id = RegionTable::kNoRegion;
  double predicted_ipc = 0.0;
  std::uint64_t skipped_warp_insts = 0;
  std::uint64_t skipped_thread_insts = 0;
  std::uint32_t n_skipped_blocks = 0;
  /// Simulated cycle at which the stability test fired and fast-forwarding
  /// began; the accuracy-attribution report uses it to place each skipped
  /// stretch on the launch timeline.
  std::uint64_t ff_start_cycle = 0;
  /// Warming units that fed the stability test before the IPC locked in.
  std::uint32_t n_warm_units = 0;
};

class RegionSampler final : public sim::SimController {
 public:
  enum class State : std::uint8_t { kNormal, kWarming, kFastForward };

  /// `launch` and `table` must outlive the sampler.
  RegionSampler(const profile::LaunchProfile& launch, const RegionTable& table,
                const RegionSamplerOptions& options = {});

  [[nodiscard]] sim::BlockAction on_block_dispatch(std::uint32_t block_id,
                                                   std::uint64_t cycle) override;
  void on_block_retire(std::uint32_t block_id, std::uint64_t cycle,
                       bool was_skipped) override;
  void on_sampling_unit(const sim::SamplingUnit& unit) override;

  /// Flushes the in-progress fast-forward record; call after run_launch.
  void finalize();

  /// Attaches observability (pure observers; see obs/metrics.hpp).  Either
  /// side may be null.  Phase spans (warm-up, fast-forward) are drawn on
  /// trace row (`pid`, `tid`) — callers use one synthetic row past the SM
  /// rows of the same launch; sampler counters flush into `metrics` at
  /// finalize().
  void attach_observation(obs::MetricsShard* metrics, obs::TraceBuffer* trace,
                          std::uint32_t pid, std::uint32_t tid) {
    metrics_ = metrics;
    trace_ = trace;
    trace_pid_ = pid;
    trace_tid_ = tid;
    if (trace_ != nullptr) trace_->thread_name(pid, tid, "region-sampler");
  }

  [[nodiscard]] std::span<const SkippedRegion> skipped_regions() const noexcept {
    return skipped_;
  }
  [[nodiscard]] std::uint64_t total_skipped_warp_insts() const noexcept;
  [[nodiscard]] std::uint32_t total_skipped_blocks() const noexcept;

  [[nodiscard]] State state() const noexcept { return state_; }
  [[nodiscard]] int current_region() const noexcept { return current_region_; }

 private:
  void reevaluate_entry(std::uint64_t cycle);

  /// Closes the open warm-up/fast-forward trace span at `cycle` (no-op in
  /// kNormal or without a trace buffer) — called on every phase transition.
  void end_phase_span(std::uint64_t cycle);
  /// Remembers the simulation time of the latest callback so finalize()
  /// (which has no cycle argument) can close the trailing span.
  void note_cycle(std::uint64_t cycle) noexcept {
    last_cycle_ = cycle;
  }

  const profile::LaunchProfile* launch_;
  const RegionTable* table_;
  RegionSamplerOptions options_;

  State state_ = State::kNormal;
  int current_region_ = RegionTable::kNoRegion;
  std::unordered_map<std::uint32_t, int> running_;  ///< simulated blocks -> region
  /// Scratch vote tally.  Deliberately a sorted map: the dominant-region
  /// scan walks it in region-id order, so a tie between regions resolves
  /// to the smallest id on every platform instead of to whichever entry an
  /// unordered_map's bucket order yielded first — the elected region fixes
  /// the predicted IPC, which reaches the reconstructed artifacts.
  std::map<int, std::size_t> region_counts_;
  std::vector<double> warm_ipcs_;
  std::uint64_t warming_since_cycle_ = 0;
  SkippedRegion open_skip_;  ///< accumulating while fast-forwarding
  std::vector<SkippedRegion> skipped_;

  // Observability (unused while metrics_ and trace_ are null).
  obs::MetricsShard* metrics_ = nullptr;
  obs::TraceBuffer* trace_ = nullptr;
  std::uint32_t trace_pid_ = 0;
  std::uint32_t trace_tid_ = 0;
  std::uint64_t phase_start_cycle_ = 0;
  std::uint64_t last_cycle_ = 0;
  std::uint64_t warm_phases_ = 0;  ///< warming entries (incl. restarts)
  std::uint64_t warm_units_ = 0;   ///< units that fed the stability test
};

}  // namespace tbp::core
