#include "core/region_sampler.hpp"

#include <cassert>
#include <cmath>

namespace tbp::core {
namespace {

/// Warming ends once two consecutive units agree within this relative IPC
/// difference (paper: 10% unit-to-unit IPC agreement).
constexpr double kWarmupIpcTolerance = 0.1;

}  // namespace

RegionSampler::RegionSampler(const profile::LaunchProfile& launch,
                             const RegionTable& table,
                             const RegionSamplerOptions& options)
    : launch_(&launch), table_(&table), options_(options) {}

void RegionSampler::end_phase_span(std::uint64_t cycle) {
  if (trace_ == nullptr || state_ == State::kNormal) return;
  const char* name =
      state_ == State::kWarming ? "warm-up" : "fast-forward";
  trace_->complete(
      name, "region", trace_tid_, phase_start_cycle_,
      cycle - phase_start_cycle_,
      {{"region", obs::json_number(static_cast<std::uint64_t>(
                      current_region_ < 0 ? 0 : current_region_))}});
}

sim::BlockAction RegionSampler::on_block_dispatch(std::uint32_t block_id,
                                                  std::uint64_t cycle) {
  note_cycle(cycle);
  const int region = table_->region_of(block_id);

  if (state_ == State::kFastForward) {
    if (region == current_region_) {
      // Near the very end of the launch, resume simulating so the
      // occupancy drain is measured instead of being billed at the locked
      // steady-state IPC.
      const std::uint32_t n_blocks = table_->n_blocks();
      const bool launch_tail =
          options_.simulate_final_tail_blocks > 0 &&
          block_id + options_.simulate_final_tail_blocks >= n_blocks;
      if (!launch_tail) {
        const profile::BlockStats& stats = launch_->blocks[block_id];
        open_skip_.skipped_warp_insts += stats.warp_insts;
        open_skip_.skipped_thread_insts += stats.thread_insts;
        ++open_skip_.n_skipped_blocks;
        return sim::BlockAction::kSkip;
      }
      // Fall through to simulate the tail block; the fast-forward record
      // stays open for accounting and is flushed at exit/finalize.
    } else {
      // Exit: a block from outside the region arrived.
      end_phase_span(cycle);
      skipped_.push_back(open_skip_);
      open_skip_ = SkippedRegion{};
      state_ = State::kNormal;
      current_region_ = RegionTable::kNoRegion;
    }
  }

  ++running_blocks_;
  if (region != RegionTable::kNoRegion) ++region_counts_[region];
  reevaluate_entry(cycle);  // a no-op while fast-forwarding
  return sim::BlockAction::kSimulate;
}

void RegionSampler::on_block_retire(std::uint32_t block_id, std::uint64_t cycle,
                                    bool was_skipped) {
  note_cycle(cycle);
  if (was_skipped) return;
  assert(running_blocks_ > 0);
  --running_blocks_;
  if (const int region = table_->region_of(block_id);
      region != RegionTable::kNoRegion) {
    const auto it = region_counts_.find(region);
    assert(it != region_counts_.end());
    if (--it->second == 0) region_counts_.erase(it);
  }
  if (running_blocks_ != 0) reevaluate_entry(cycle);
}

void RegionSampler::reevaluate_entry(std::uint64_t cycle) {
  if (state_ == State::kFastForward) return;

  // The dominant region among the running blocks, and its share: walking
  // the sorted tally with strict '>', the smallest-id region wins a tie.
  int dominant = RegionTable::kNoRegion;
  std::size_t dominant_count = 0;
  for (const auto& [region, count] : region_counts_) {
    if (count > dominant_count) {
      dominant = region;
      dominant_count = count;
    }
  }
  const bool entered =
      running_blocks_ != 0 && dominant != RegionTable::kNoRegion &&
      static_cast<double>(dominant_count) >=
          options_.entry_fraction * static_cast<double>(running_blocks_);

  if (entered) {
    if (state_ != State::kWarming || current_region_ != dominant) {
      end_phase_span(cycle);  // a warming span for a different region
      state_ = State::kWarming;
      current_region_ = dominant;
      warm_ipcs_.clear();
      warming_since_cycle_ = cycle;
      phase_start_cycle_ = cycle;
      ++warm_phases_;
    }
  } else if (state_ == State::kWarming) {
    end_phase_span(cycle);
    state_ = State::kNormal;
    current_region_ = RegionTable::kNoRegion;
    warm_ipcs_.clear();
  }
}

void RegionSampler::on_sampling_unit(const sim::SamplingUnit& unit) {
  note_cycle(unit.end_cycle);
  if (state_ != State::kWarming) return;
  // Only units fully inside the warming period count: a unit that opened
  // before the region was entered mixes outside work into its IPC.
  if (unit.start_cycle < warming_since_cycle_) return;

  ++warm_units_;
  warm_ipcs_.push_back(unit.ipc());
  const std::size_t n = warm_ipcs_.size();
  bool stable = false;
  if (n >= options_.min_warm_units && n >= 2) {
    const double prev = warm_ipcs_[n - 2];
    const double curr = warm_ipcs_[n - 1];
    stable = prev > 0.0 &&
             std::abs(curr - prev) / prev < kWarmupIpcTolerance;
  }
  if (!stable) return;

  end_phase_span(unit.end_cycle);  // warming ends where fast-forward begins
  phase_start_cycle_ = unit.end_cycle;
  state_ = State::kFastForward;
  open_skip_ = SkippedRegion{
      .region_id = current_region_,
      .predicted_ipc = warm_ipcs_.back(),
      .skipped_warp_insts = 0,
      .skipped_thread_insts = 0,
      .n_skipped_blocks = 0,
      .ff_start_cycle = unit.end_cycle,
      .n_warm_units = static_cast<std::uint32_t>(warm_ipcs_.size()),
  };
  warm_ipcs_.clear();
}

void RegionSampler::finalize() {
  end_phase_span(last_cycle_);  // close the trailing warm-up/fast-forward span
  if (state_ == State::kFastForward) {
    skipped_.push_back(open_skip_);
    open_skip_ = SkippedRegion{};
    state_ = State::kNormal;
    current_region_ = RegionTable::kNoRegion;
  }
  if (metrics_ != nullptr) {
    metrics_->add("core.sampler.regions_fast_forwarded", skipped_.size());
    metrics_->add("core.sampler.skipped_blocks", total_skipped_blocks());
    metrics_->add("core.sampler.skipped_warp_insts",
                  total_skipped_warp_insts());
    metrics_->add("core.sampler.warm_phases", warm_phases_);
    metrics_->add("core.sampler.warm_units", warm_units_);
  }
}

std::uint64_t RegionSampler::total_skipped_warp_insts() const noexcept {
  std::uint64_t total = 0;
  for (const SkippedRegion& r : skipped_) total += r.skipped_warp_insts;
  return total;
}

std::uint32_t RegionSampler::total_skipped_blocks() const noexcept {
  std::uint32_t total = 0;
  for (const SkippedRegion& r : skipped_) total += r.n_skipped_blocks;
  return total;
}

}  // namespace tbp::core
