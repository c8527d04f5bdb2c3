#include "core/attribution.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <string>

namespace tbp::core {

double ErrorAttribution::cycles_to_ipc(double cycles) const noexcept {
  if (predicted_total_cycles <= 0.0 || exact_total_cycles <= 0.0) return 0.0;
  return -static_cast<double>(total_warp_insts) * cycles /
         (predicted_total_cycles * exact_total_cycles);
}

namespace {

[[nodiscard]] double pct_of_exact(const ErrorAttribution& a, double ipc_delta) {
  return a.exact_ipc == 0.0 ? 0.0 : 100.0 * ipc_delta / a.exact_ipc;
}

}  // namespace

double ErrorAttribution::total_error_pct() const noexcept {
  return pct_of_exact(*this, ipc_error());
}
double ErrorAttribution::inter_error_pct() const noexcept {
  return pct_of_exact(*this, inter_ipc_error());
}
double ErrorAttribution::warmup_error_pct() const noexcept {
  return pct_of_exact(*this, warmup_ipc_error());
}
double ErrorAttribution::reconstruction_error_pct() const noexcept {
  return pct_of_exact(*this, reconstruction_ipc_error());
}

ErrorAttribution attribute_errors(const profile::ApplicationProfile& profile,
                                  const TBPointRun& run,
                                  std::span<const LaunchExact> exact) {
  assert(exact.size() == profile.launches.size());
  assert(run.reps.size() == run.inter.representatives.size());

  ErrorAttribution out;
  if (exact.empty() || run.reps.empty()) return out;

  out.total_warp_insts = profile.total_warp_insts();
  for (const LaunchExact& launch : exact) {
    if (launch.cycles == 0) return out;  // no ground truth, no attribution
    out.exact_total_cycles += static_cast<double>(launch.cycles);
  }

  for (std::size_t c = 0; c < run.inter.clusters.size(); ++c) {
    const RepresentativeRun& rep = run.reps[c];
    const std::size_t rep_launch = run.inter.representatives[c];
    const LaunchExact& rep_exact = exact[rep_launch];
    const double rep_exact_ipc = rep_exact.ipc();
    const std::uint64_t rep_insts =
        profile.launches[rep_launch].total_warp_insts();
    if (rep_insts == 0 || rep_exact_ipc <= 0.0 ||
        rep.prediction.predicted_cycles <= 0.0) {
      return ErrorAttribution{};  // degenerate representative
    }

    // Per-representative (unscaled) split of the intra-launch error into
    // the reconstruction-weighting part and the warm-up residual.  The
    // per-region charge comes from the reconstruction itself
    // (region_charged_cycles), so the fallback rule is never re-derived.
    assert(rep.prediction.region_charged_cycles.size() == rep.skipped.size());
    double recon_rep = 0.0;
    std::uint64_t skipped_insts_rep = 0;
    for (std::size_t g = 0; g < rep.skipped.size(); ++g) {
      const SkippedRegion& region = rep.skipped[g];
      const double charged = rep.prediction.region_charged_cycles[g];
      const double at_exact_rate =
          static_cast<double>(region.skipped_warp_insts) / rep_exact_ipc;
      const double recon_region = charged - at_exact_rate;
      recon_rep += recon_region;
      skipped_insts_rep += region.skipped_warp_insts;
      out.regions.push_back(RegionAttribution{
          .rep_slot = c,
          .launch_index = rep_launch,
          .region_id = region.region_id,
          .skipped_warp_insts = region.skipped_warp_insts,
          .n_warm_units = region.n_warm_units,
          .ff_start_cycle = region.ff_start_cycle,
          .locked_ipc = region.predicted_ipc,
          .exact_ipc = rep_exact_ipc,
          .recon_cycles = recon_region,
      });
    }
    const double warm_rep =
        static_cast<double>(rep.prediction.simulated_cycles) +
        static_cast<double>(skipped_insts_rep) / rep_exact_ipc -
        static_cast<double>(rep_exact.cycles);

    ClusterAttribution row;
    row.cluster = c;
    row.rep_launch = rep_launch;
    row.n_launches = run.inter.clusters[c].size();
    double distance_sum = 0.0;
    for (const std::size_t member : run.inter.clusters[c]) {
      row.cluster_warp_insts += profile.launches[member].total_warp_insts();
      row.exact_cycles += static_cast<double>(exact[member].cycles);
      if (member < run.inter.distance_to_representative.size()) {
        distance_sum += run.inter.distance_to_representative[member];
      }
    }
    row.mean_distance_to_rep =
        row.n_launches == 0
            ? 0.0
            : distance_sum / static_cast<double>(row.n_launches);
    row.scale = static_cast<double>(row.cluster_warp_insts) /
                static_cast<double>(rep_insts);
    row.predicted_cycles = row.scale * rep.prediction.predicted_cycles;
    row.inter_cycles =
        row.scale * static_cast<double>(rep_exact.cycles) - row.exact_cycles;
    row.warmup_cycles = row.scale * warm_rep;
    row.recon_cycles = row.scale * recon_rep;

    out.predicted_total_cycles += row.predicted_cycles;
    out.inter_cycles += row.inter_cycles;
    out.warmup_cycles += row.warmup_cycles;
    out.reconstruction_cycles += row.recon_cycles;
    out.clusters.push_back(row);
  }

  if (out.predicted_total_cycles <= 0.0) return ErrorAttribution{};
  out.exact_ipc = static_cast<double>(out.total_warp_insts) / out.exact_total_cycles;
  out.predicted_ipc =
      static_cast<double>(out.total_warp_insts) / out.predicted_total_cycles;
  out.valid = true;
  return out;
}

void record_attribution(const ErrorAttribution& attribution,
                        obs::MetricsShard* shard) {
  if (shard == nullptr) return;
  shard->add("core.attr.valid", attribution.valid ? 1u : 0u);
  if (!attribution.valid) return;
  const auto record = [&](const char* name, double pct) {
    // |error| in parts-per-billion of the exact IPC: integer-exact in a
    // counter, and fine-grained enough to pin sub-1e-6-percent drifts.
    const double ppb = std::abs(pct) * 1e7;
    const double clamped = std::min(ppb, 1e18);
    shard->add(std::string("core.attr.") + name + ".err_ppb",
               static_cast<std::uint64_t>(std::llround(clamped)));
    shard->add(std::string("core.attr.") + name + ".negative",
               std::signbit(pct) ? 1u : 0u);
  };
  record("total", attribution.total_error_pct());
  record("inter", attribution.inter_error_pct());
  record("warmup", attribution.warmup_error_pct());
  record("reconstruction", attribution.reconstruction_error_pct());
}

}  // namespace tbp::core
