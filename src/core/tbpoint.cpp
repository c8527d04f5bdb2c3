#include "core/tbpoint.hpp"

#include <cassert>
#include <numeric>

#include "support/parallel.hpp"
#include "trace/occupancy.hpp"

namespace tbp::core {
namespace {

/// With inter-launch sampling disabled, every launch is its own
/// single-member cluster and its own representative.
[[nodiscard]] InterLaunchResult identity_clustering(std::size_t n_launches) {
  InterLaunchResult result;
  result.cluster_of_launch.resize(n_launches);
  std::iota(result.cluster_of_launch.begin(), result.cluster_of_launch.end(), 0);
  result.clusters.resize(n_launches);
  result.representatives.resize(n_launches);
  result.distance_to_representative.resize(n_launches, 0.0);
  for (std::size_t i = 0; i < n_launches; ++i) {
    result.clusters[i] = {i};
    result.representatives[i] = i;
  }
  return result;
}

}  // namespace

TBPointRun run_tbpoint(std::span<const trace::LaunchTraceSource* const> launches,
                       const profile::ApplicationProfile& profile,
                       const sim::GpuConfig& config, const TBPointOptions& options) {
  assert(launches.size() == profile.launches.size());

  TBPointRun run;
  run.inter = options.enable_inter ? cluster_launches(profile, options.inter)
                                   : identity_clustering(launches.size());

  // The representative launches are independent simulations: each owns a
  // freshly constructed simulator (explicit launch isolation — no
  // cache/DRAM state leaks between representatives) and its own sampler,
  // and writes into its slot in run.reps.  Collecting by slot index keeps
  // the result bit-identical to the serial order for every jobs value.
  run.reps.resize(run.inter.representatives.size());
  par::parallel_for(
      run.inter.representatives.size(), options.jobs, [&](std::size_t r) {
        const std::size_t launch_index = run.inter.representatives[r];
        const trace::LaunchTraceSource& source = *launches[launch_index];
        const profile::LaunchProfile& launch_profile =
            profile.launches[launch_index];

        RepresentativeRun rep;
        rep.launch_index = launch_index;

        const std::uint32_t occupancy = trace::system_occupancy(
            source.kernel(), config.sm_resources, config.n_sms);
        if (options.enable_intra && occupancy > 0) {
          rep.regions = identify_regions(launch_profile, occupancy, options.intra);
        } else {
          rep.regions.table = RegionTable{
              static_cast<std::uint32_t>(launch_profile.blocks.size()), {}};
        }

        RegionSamplerOptions sampler_options = options.sampler;
        if (sampler_options.simulate_final_tail_blocks == 0) {
          // Simulate the launch-final drain (see RegionSamplerOptions).
          sampler_options.simulate_final_tail_blocks = occupancy;
        }
        RegionSampler sampler(launch_profile, rep.regions.table, sampler_options);
        sim::RunOptions run_options;
        run_options.controller = &sampler;
        if (options.observe != nullptr) {
          // One shard/buffer per representative, keyed by the launch it
          // simulates, so the merge order is independent of the jobs value.
          run_options.observe = sim::observe_launch(
              options.observe, options.observe_key_prefix + "tbp/rep/" +
                                   obs::key_index(launch_index));
          // Phase spans go on one synthetic row past the SM rows.
          sampler.attach_observation(run_options.observe.metrics,
                                     run_options.observe.trace,
                                     config.n_sms + 1);
        }
        sim::GpuSimulator simulator(config);
        rep.sim = simulator.run_launch(source, run_options);
        sampler.finalize();

        rep.skipped.assign(sampler.skipped_regions().begin(),
                           sampler.skipped_regions().end());
        rep.prediction = predict_launch(launch_profile, rep.sim, rep.skipped);
        run.reps[r] = std::move(rep);
      });

  std::vector<LaunchPrediction> rep_predictions;
  rep_predictions.reserve(run.reps.size());
  for (const RepresentativeRun& rep : run.reps) {
    rep_predictions.push_back(rep.prediction);
  }

  run.app = combine_predictions(profile, run.inter, rep_predictions);
  return run;
}

}  // namespace tbp::core
