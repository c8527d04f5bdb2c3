#include "harness/experiment.hpp"

#include <algorithm>
#include <atomic>
#include <vector>

#include "profile/profiler.hpp"
#include "sim/gpu.hpp"
#include "stats/error.hpp"
#include "support/walltime.hpp"

namespace tbp::harness {
namespace {

std::atomic<std::size_t> g_comparison_invocations{0};

}  // namespace

std::size_t run_comparison_invocations() noexcept {
  return g_comparison_invocations.load(std::memory_order_relaxed);
}

ExperimentRow run_comparison(const workloads::Workload& workload,
                             const sim::GpuConfig& config,
                             const ComparisonOptions& options) {
  g_comparison_invocations.fetch_add(1, std::memory_order_relaxed);

  ExperimentRow row;
  row.workload = workload.name;
  row.irregular = workload.irregular();
  row.n_launches = workload.launches.size();
  row.total_blocks = workload.total_blocks();

  const std::vector<const trace::LaunchTraceSource*> sources = workload.sources();

  // ---- One-time functional profiling (the GPUOcelot stage). ----
  const timing::WallTimer profile_timer;
  const profile::ApplicationProfile app_profile =
      profile::profile_application(sources, options.jobs);
  const double profile_seconds = profile_timer.seconds();
  row.total_warp_insts = app_profile.total_warp_insts();

  // ---- Ground truth: full simulation with fixed-unit metering. ----
  row.unit_insts = std::clamp<std::uint64_t>(
      row.total_warp_insts / std::max<std::size_t>(options.target_units, 1),
      options.min_unit_insts, options.max_unit_insts);
  sim::GpuConfig full_config = config;
  full_config.fixed_unit_insts = row.unit_insts;

  // Every launch simulates cold on its own machine (sim::simulate_launches).
  // TBPoint's sampled launches start cold too, so sharing warmed state here
  // would bias the ground truth the sampled runs are scored against.
  const timing::WallTimer full_timer;
  std::vector<sim::LaunchResult> launch_results =
      sim::simulate_launches(sources, full_config, options.jobs,
                             options.observe, row.workload + "/full/");
  // Serial merge in launch order.
  std::uint64_t full_cycles = 0;
  std::uint64_t full_insts = 0;
  std::vector<sim::FixedUnit> units;
  std::vector<core::LaunchExact> exact;
  exact.reserve(launch_results.size());
  for (sim::LaunchResult& result : launch_results) {
    full_cycles += result.cycles;
    full_insts += result.sim_warp_insts;
    exact.push_back(core::LaunchExact{result.cycles, result.sim_warp_insts});
    units.insert(units.end(),
                 std::make_move_iterator(result.fixed_units.begin()),
                 std::make_move_iterator(result.fixed_units.end()));
  }
  launch_results.clear();
  row.full_retired_warp_insts = full_insts;
  row.full_sim_seconds = full_timer.seconds();
  row.full_ipc = full_cycles == 0 ? 0.0
                                  : static_cast<double>(full_insts) /
                                        static_cast<double>(full_cycles);

  // ---- Random sampling over the full simulation's units. ----
  const baselines::RandomSamplingResult random =
      baselines::random_sampling(units, options.random);
  row.random.ipc = random.predicted_ipc;
  row.random.err_pct = stats::relative_error_pct(random.predicted_ipc, row.full_ipc);
  row.random.sample_pct = 100.0 * random.sample_fraction;

  // ---- Systematic (periodic) sampling over the same units. ----
  const baselines::SystematicSamplingResult systematic =
      baselines::systematic_sampling(units, options.systematic);
  row.systematic.ipc = systematic.predicted_ipc;
  row.systematic.err_pct =
      stats::relative_error_pct(systematic.predicted_ipc, row.full_ipc);
  row.systematic.sample_pct = 100.0 * systematic.sample_fraction;

  // ---- Ideal-SimPoint over the same units' BBVs. ----
  const baselines::SimpointResult simpoint =
      baselines::ideal_simpoint(units, options.simpoint);
  row.simpoint.ipc = simpoint.predicted_ipc;
  row.simpoint.err_pct =
      stats::relative_error_pct(simpoint.predicted_ipc, row.full_ipc);
  row.simpoint.sample_pct = 100.0 * simpoint.sample_fraction;
  row.simpoint_k = simpoint.selected_k;

  // ---- TBPoint: clustering + sampled simulation only. ----
  const timing::WallTimer tbp_sim_timer;
  core::TBPointOptions tbp_options = options.tbpoint;
  tbp_options.jobs = options.jobs;
  if (options.observe != nullptr) {
    tbp_options.observe = options.observe;
    tbp_options.observe_key_prefix = row.workload + "/";
  }
  const core::TBPointRun tbp =
      core::run_tbpoint(sources, app_profile, config, tbp_options);
  row.tbp_seconds = profile_seconds + tbp_sim_timer.seconds();
  row.tbpoint.ipc = tbp.app.predicted_ipc;
  row.tbpoint.err_pct =
      stats::relative_error_pct(tbp.app.predicted_ipc, row.full_ipc);
  row.tbpoint.sample_pct = 100.0 * tbp.app.sample_fraction();
  row.inter_skip_share = tbp.app.inter_skip_share();
  row.tbp_clusters = tbp.inter.clusters.size();

  // ---- Accuracy attribution against the ground truth just computed. ----
  // Serial and purely derived from per-launch results collected by index,
  // so it inherits the row's --jobs bit-identity.
  row.attribution = core::attribute_errors(app_profile, tbp, exact);

  if (options.observe != nullptr && options.observe->metrics_on()) {
    core::record_attribution(
        row.attribution,
        options.observe->metrics_shard(row.workload + "/attribution"));
    row.metrics = options.observe->merged_metrics(row.workload + "/");
  }

  return row;
}

}  // namespace tbp::harness
