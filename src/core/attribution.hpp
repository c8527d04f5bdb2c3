// Accuracy attribution: decomposes TBPoint's end-to-end IPC error into the
// three places the pipeline can lose accuracy, additively.
//
// Everything is accounted in *cycle space* (predicted minus exact cycles,
// signed), because cycles add where IPCs do not.  For a cluster c whose
// representative launch r was sampled:
//
//   inter   = scale_c * C_exact(r) - sum_{l in c} C_exact(l)
//             The projection error: every member is assumed to run at its
//             representative's *exact* cycles-per-instruction.  Zero for
//             singleton clusters and for the representative itself.
//   recon   = scale_c * sum_regions [charged_g - skipped_g / IPC_exact(r)]
//             The weighting error: each fast-forwarded stretch was charged
//             at the sampler's locked-in unit IPC instead of the launch's
//             exact average IPC.
//   warmup  = scale_c * [C_sim(r) + skipped(r)/IPC_exact(r) - C_exact(r)]
//             The residual sampling bias: what the simulated portion plus
//             exact-rate-charged skips still miss versus the exact run —
//             cold-start transients, non-uniform sampling of the launch.
//
// with scale_c = cluster insts / representative insts, the factor the
// Table IV reconstruction applies to the representative's prediction.  By
// construction inter + warmup + recon telescopes to
// (predicted total cycles - exact total cycles) exactly, so the components
// also sum to the total IPC error after the shared cycle->IPC mapping
// (attribution_test pins this within floating-point tolerance).
//
// Exact per-launch cycles come from a full simulation, so attribution is
// available exactly where a ground truth exists: run_comparison, and
// `tbpoint_cli simulate` followed by the TBPoint pipeline.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "core/tbpoint.hpp"
#include "obs/metrics.hpp"

namespace tbp::core {

/// Ground truth for one launch, from the full (unsampled) simulation.
struct LaunchExact {
  std::uint64_t cycles = 0;
  std::uint64_t warp_insts = 0;

  [[nodiscard]] double ipc() const noexcept {
    return cycles == 0 ? 0.0
                       : static_cast<double>(warp_insts) /
                             static_cast<double>(cycles);
  }
};

/// One fast-forwarded stretch, re-weighed against the exact launch IPC.
struct RegionAttribution {
  std::size_t rep_slot = 0;      ///< index into TBPointRun::reps
  std::size_t launch_index = 0;  ///< launch the representative simulated
  int region_id = 0;
  std::uint64_t skipped_warp_insts = 0;
  std::uint32_t n_warm_units = 0;
  std::uint64_t ff_start_cycle = 0;
  double locked_ipc = 0.0;       ///< IPC the reconstruction charged
  double exact_ipc = 0.0;        ///< launch's exact machine IPC
  /// charged - skipped/exact_ipc: signed, unscaled (per-representative).
  double recon_cycles = 0.0;
};

/// One cluster's contribution to the application-level error.
struct ClusterAttribution {
  std::size_t cluster = 0;
  std::size_t rep_launch = 0;
  std::size_t n_launches = 0;
  std::uint64_t cluster_warp_insts = 0;
  double scale = 0.0;            ///< cluster insts / representative insts
  double mean_distance_to_rep = 0.0;  ///< feature-space, over members
  double exact_cycles = 0.0;     ///< sum of members' exact cycles
  double predicted_cycles = 0.0; ///< scale * representative's prediction
  double inter_cycles = 0.0;     ///< signed components, already scaled
  double warmup_cycles = 0.0;
  double recon_cycles = 0.0;
};

struct ErrorAttribution {
  /// False when a denominator degenerates (no launches, a zero-cycle exact
  /// run, a zero-instruction representative); all fields are zero then.
  bool valid = false;

  std::uint64_t total_warp_insts = 0;
  double exact_total_cycles = 0.0;
  double predicted_total_cycles = 0.0;
  double exact_ipc = 0.0;
  double predicted_ipc = 0.0;

  /// Signed application-level components, cycle space; they telescope to
  /// total_error_cycles().
  double inter_cycles = 0.0;
  double warmup_cycles = 0.0;
  double reconstruction_cycles = 0.0;

  std::vector<ClusterAttribution> clusters;  ///< in cluster order
  std::vector<RegionAttribution> regions;    ///< in rep, then region order

  [[nodiscard]] double total_error_cycles() const noexcept {
    return predicted_total_cycles - exact_total_cycles;
  }
  /// Maps a signed cycle-space component to its (signed) contribution to
  /// predicted_ipc - exact_ipc; linear, so components stay additive.
  [[nodiscard]] double cycles_to_ipc(double cycles) const noexcept;

  [[nodiscard]] double ipc_error() const noexcept {
    return predicted_ipc - exact_ipc;
  }
  [[nodiscard]] double inter_ipc_error() const noexcept {
    return cycles_to_ipc(inter_cycles);
  }
  [[nodiscard]] double warmup_ipc_error() const noexcept {
    return cycles_to_ipc(warmup_cycles);
  }
  [[nodiscard]] double reconstruction_ipc_error() const noexcept {
    return cycles_to_ipc(reconstruction_cycles);
  }

  /// Signed percentages of the exact IPC (the scale Figs. 9-13 use).
  [[nodiscard]] double total_error_pct() const noexcept;
  [[nodiscard]] double inter_error_pct() const noexcept;
  [[nodiscard]] double warmup_error_pct() const noexcept;
  [[nodiscard]] double reconstruction_error_pct() const noexcept;
};

/// Builds the decomposition for one TBPoint run against the full-simulation
/// ground truth.  `exact[i]` must describe the same launch that was
/// profiled into `profile.launches[i]`.  Deterministic: serial summation in
/// cluster/region order, so equal inputs give bit-equal attributions for
/// every --jobs value.
[[nodiscard]] ErrorAttribution attribute_errors(
    const profile::ApplicationProfile& profile, const TBPointRun& run,
    std::span<const LaunchExact> exact);

/// Records the decomposition into a metrics shard as integer counters
/// (per-component |error| in parts-per-billion of the exact IPC plus a sign
/// marker), so `--metrics` output carries the attribution alongside the
/// simulator counters.  No-op when `shard` is null.
void record_attribution(const ErrorAttribution& attribution,
                        obs::MetricsShard* shard);

}  // namespace tbp::core
