#include "traced.hpp"

#include <algorithm>
#include <atomic>
#include <iterator>
#include <string>
#include <utility>
#include <vector>

#include "baselines/ideal_simpoint.hpp"
#include "baselines/random_sampling.hpp"
#include "baselines/systematic_sampling.hpp"
#include "core/attribution.hpp"
#include "core/tbpoint.hpp"
#include "profile/profiler.hpp"
#include "sim/gpu.hpp"
#include "stats/error.hpp"
#include "support/parallel.hpp"
#include "trace/occupancy.hpp"

namespace tbp::perfbench {

TracedRow traced_comparison(const workloads::Workload& workload,
                            const sim::GpuConfig& config,
                            const harness::ComparisonOptions& options,
                            SpanLog& log, int parent, int row_index,
                            obs::Observation& observe) {
  TracedRow out;
  harness::ExperimentRow& row = out.row;
  row.workload = workload.name;
  row.irregular = workload.irregular();
  row.n_launches = workload.launches.size();
  row.total_blocks = workload.total_blocks();
  const std::vector<const trace::LaunchTraceSource*> sources = workload.sources();
  std::atomic<std::size_t> checked{0};
  std::atomic<std::size_t> failed{0};

  // ---- Functional profiling, one task per launch. ----
  profile::ApplicationProfile app_profile;
  app_profile.launches.resize(sources.size());
  {
    const ScopedSpan phase(log, "profile", parent, row_index);
    par::parallel_for(sources.size(), options.jobs, [&](std::size_t i) {
      const ScopedSpan span(log, "profile.launch", phase.id(), row_index);
      app_profile.launches[i] = profile::profile_launch(*sources[i]);
    });
  }
  row.total_warp_insts = app_profile.total_warp_insts();

  // ---- Full simulation, one freshly constructed simulator per launch. ----
  row.unit_insts = std::clamp<std::uint64_t>(
      row.total_warp_insts / std::max<std::size_t>(options.target_units, 1),
      options.min_unit_insts, options.max_unit_insts);
  sim::GpuConfig full_config = config;
  full_config.fixed_unit_insts = row.unit_insts;
  std::vector<sim::LaunchResult> launch_results(sources.size());
  {
    const ScopedSpan phase(log, "sim.full", parent, row_index);
    par::parallel_for(sources.size(), options.jobs, [&](std::size_t i) {
      const ScopedSpan span(log, "sim.full.launch", phase.id(), row_index);
      sim::RunOptions run_options;
      run_options.sim_jobs = options.sim_jobs;
      run_options.observe.metrics =
          observe.metrics_shard(row.workload + "/full/" + obs::key_index(i));
      sim::GpuSimulator launch_sim(full_config);
      Result<sim::LaunchResult> result =
          launch_sim.run_launch_checked(*sources[i], run_options);
      checked.fetch_add(1);
      if (result.has_value()) {
        launch_results[i] = *std::move(result);
      } else {
        failed.fetch_add(1);
      }
    });
  }
  std::uint64_t full_insts = 0;
  std::vector<sim::FixedUnit> units;
  std::vector<core::LaunchExact> exact;
  exact.reserve(launch_results.size());
  for (sim::LaunchResult& result : launch_results) {
    out.full_cycles += result.cycles;
    full_insts += result.sim_warp_insts;
    exact.push_back(core::LaunchExact{result.cycles, result.sim_warp_insts});
    units.insert(units.end(), std::make_move_iterator(result.fixed_units.begin()),
                 std::make_move_iterator(result.fixed_units.end()));
  }
  launch_results.clear();
  out.units = units.size();
  row.full_retired_warp_insts = full_insts;
  row.full_ipc = out.full_cycles == 0 ? 0.0
                                      : static_cast<double>(full_insts) /
                                            static_cast<double>(out.full_cycles);

  // ---- Baselines over the full simulation's fixed units. ----
  {
    const ScopedSpan span(log, "baselines.random", parent, row_index);
    const baselines::RandomSamplingResult random =
        baselines::random_sampling(units, options.random);
    row.random.ipc = random.predicted_ipc;
    row.random.err_pct = stats::relative_error_pct(random.predicted_ipc, row.full_ipc);
    row.random.sample_pct = 100.0 * random.sample_fraction;
  }
  {
    const ScopedSpan span(log, "baselines.systematic", parent, row_index);
    const baselines::SystematicSamplingResult systematic =
        baselines::systematic_sampling(units, options.systematic);
    row.systematic.ipc = systematic.predicted_ipc;
    row.systematic.err_pct =
        stats::relative_error_pct(systematic.predicted_ipc, row.full_ipc);
    row.systematic.sample_pct = 100.0 * systematic.sample_fraction;
  }
  {
    const ScopedSpan span(log, "baselines.simpoint", parent, row_index);
    const baselines::SimpointResult simpoint =
        baselines::ideal_simpoint(units, options.simpoint);
    row.simpoint.ipc = simpoint.predicted_ipc;
    row.simpoint.err_pct =
        stats::relative_error_pct(simpoint.predicted_ipc, row.full_ipc);
    row.simpoint.sample_pct = 100.0 * simpoint.sample_fraction;
    row.simpoint_k = simpoint.selected_k;
  }

  // ---- TBPoint: inter-launch clustering, then one sampled simulation per
  // representative, then Table IV reconstruction (core::run_tbpoint's steps
  // with inter- and intra-launch sampling both on). ----
  const core::TBPointOptions& tbp_options = options.tbpoint;
  core::TBPointRun tbp;
  {
    const ScopedSpan span(log, "core.inter", parent, row_index);
    tbp.inter = core::cluster_launches(app_profile, tbp_options.inter);
  }
  tbp.reps.resize(tbp.inter.representatives.size());
  {
    const ScopedSpan phase(log, "tbp.reps", parent, row_index);
    par::parallel_for(tbp.reps.size(), options.jobs, [&](std::size_t r) {
      const ScopedSpan rep_span(log, "tbp.rep", phase.id(), row_index);
      const std::size_t launch_index = tbp.inter.representatives[r];
      const trace::LaunchTraceSource& source = *sources[launch_index];
      const profile::LaunchProfile& launch_profile = app_profile.launches[launch_index];
      core::RepresentativeRun rep;
      rep.launch_index = launch_index;
      const std::uint32_t occupancy = trace::system_occupancy(
          source.kernel(), config.sm_resources, config.n_sms);
      {
        const ScopedSpan span(log, "core.regions", rep_span.id(), row_index);
        if (occupancy > 0) {
          rep.regions = core::identify_regions(launch_profile, occupancy,
                                               tbp_options.intra);
        } else {
          rep.regions.table = core::RegionTable{
              static_cast<std::uint32_t>(launch_profile.blocks.size()), {}};
        }
      }
      core::RegionSamplerOptions sampler_options = tbp_options.sampler;
      if (sampler_options.simulate_final_tail_blocks == 0) {
        sampler_options.simulate_final_tail_blocks = occupancy;
      }
      core::RegionSampler sampler(launch_profile, rep.regions.table, sampler_options);
      {
        const ScopedSpan span(log, "sim.sampled.launch", rep_span.id(), row_index);
        sim::RunOptions run_options;
        run_options.controller = &sampler;
        run_options.sim_jobs = options.sim_jobs;
        sim::GpuSimulator simulator(config);
        Result<sim::LaunchResult> result =
            simulator.run_launch_checked(source, run_options);
        checked.fetch_add(1);
        if (result.has_value()) {
          rep.sim = *std::move(result);
        } else {
          failed.fetch_add(1);
        }
        sampler.finalize();
      }
      rep.skipped.assign(sampler.skipped_regions().begin(),
                         sampler.skipped_regions().end());
      {
        const ScopedSpan span(log, "core.predict", rep_span.id(), row_index);
        rep.prediction = core::predict_launch(launch_profile, rep.sim, rep.skipped);
      }
      tbp.reps[r] = std::move(rep);
    });
  }
  {
    const ScopedSpan span(log, "core.combine", parent, row_index);
    std::vector<core::LaunchPrediction> rep_predictions;
    rep_predictions.reserve(tbp.reps.size());
    for (const core::RepresentativeRun& rep : tbp.reps) {
      rep_predictions.push_back(rep.prediction);
    }
    tbp.app = core::combine_predictions(app_profile, tbp.inter, rep_predictions);
  }
  row.tbpoint.ipc = tbp.app.predicted_ipc;
  row.tbpoint.err_pct = stats::relative_error_pct(tbp.app.predicted_ipc, row.full_ipc);
  row.tbpoint.sample_pct = 100.0 * tbp.app.sample_fraction();
  row.inter_skip_share = tbp.app.inter_skip_share();
  row.tbp_clusters = tbp.inter.clusters.size();
  {
    const ScopedSpan span(log, "core.attribution", parent, row_index);
    row.attribution = core::attribute_errors(app_profile, tbp, exact);
  }

  out.representatives = tbp.reps.size();
  for (const core::RepresentativeRun& rep : tbp.reps) {
    out.sampled_cycles += rep.sim.cycles;
    out.skipped_blocks += rep.sim.skipped_blocks.size();
    out.regions += rep.regions.table.regions().size();
  }
  out.skipped_inter_warp_insts = tbp.app.skipped_inter_warp_insts;
  out.skipped_intra_warp_insts = tbp.app.skipped_intra_warp_insts;
  out.launches_checked = checked.load();
  out.launches_failed = failed.load();
  return out;
}

}  // namespace tbp::perfbench
