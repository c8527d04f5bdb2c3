// tbpoint_cli — the library as a command-line workflow.
//
//   tbpoint_cli list
//       Available benchmark models.
//   tbpoint_cli run      <workload> [machine flags] [--inter-sigma X]
//                        [--intra-sigma X] [--vf X] [--no-inter]
//                        [--no-intra] [--bbv] [common flags]
//       Full TBPoint pipeline; prints predicted IPC and sample size.
//   tbpoint_cli compare  <workload> [machine flags] [common flags]
//       Four-way Full / Random / Ideal-SimPoint / TBPoint comparison.
//   tbpoint_cli simulate <workload> [machine flags] [--launch N]
//                        [--max-cycles N] [--stall-limit N] [common flags]
//       Plain full simulation (all launches, or one with --launch),
//       printing per-launch cycles and IPC.  A deadlocked or over-budget
//       launch prints the watchdog diagnostic (stall age, dispatch
//       progress, per-SM warp scheduling states) instead of aborting.
//   tbpoint_cli lemma41  [--p X] [--m X] [--warps N] [--samples N]
//       Markov-chain Monte-Carlo check of the paper's Lemma 4.1 (p in [0, 1],
//       M > 0, N >= 1; --samples defaults to 10000 and must be >= 1).
//
// Machine flags: --scale N --seed S --sms S --warps W (each in [1, 1024],
// and an SM of W warps must hold one thread block of the workload; default
// the 14-SM, 48-warp Fermi) --gto.  <workload>: a Table VI name or
// binomial.  Common flags: --validate --jobs N --metrics PATH --trace PATH
// --manifest PATH (--name=value also works).  --metrics writes the merged
// counters and histograms (per-SM stall-cause breakdown, cache/DRAM
// counters, DRAM queue-depth histogram) as JSON; --trace writes a
// chrome://tracing timeline (open in Perfetto) with thread-block spans per
// SM, fixed-unit boundaries and the region sampler's warm-up/fast-forward
// phases.
//
// --manifest PATH writes a sealed tbp-manifest-v1 run manifest (flags,
// seed, results, error attribution, metrics snapshot; render with
// `tbp-report show`).  The body contains no wall-clock data and no --jobs
// value, so the bytes are identical for every --jobs setting.  `simulate`
// without --launch additionally runs the TBPoint pipeline against the
// just-computed full-simulation ground truth and prints the error-
// decomposition summary (inter/warmup/reconstruction components; DESIGN.md
// "Accuracy attribution"); with --metrics the decomposition is also
// exported as core.attr.* counters.
//
// --validate runs trace::validate_launch over every launch of the workload
// before simulating and fails with the violation report if a trace breaks
// the simulator's contract.  --jobs N (default: hardware concurrency, >= 1)
// bounds the parallelism of the independent launch profiles/simulations;
// every value produces the same numbers — only wall-clock changes.  A
// malformed or out-of-range value, an unknown workload or a flag the
// subcommand does not read is a usage error (exit 2) before any work.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "baselines/ideal_simpoint.hpp"
#include "baselines/random_sampling.hpp"
#include "core/attribution.hpp"
#include "core/tbpoint.hpp"
#include "harness/cli.hpp"
#include "harness/manifest.hpp"
#include "obs/export.hpp"
#include "harness/experiment.hpp"
#include "harness/table.hpp"
#include "markov/monte_carlo.hpp"
#include "profile/profiler.hpp"
#include "service/request.hpp"
#include "sim/gpu.hpp"
#include "stats/error.hpp"
#include "support/parallel.hpp"
#include "trace/occupancy.hpp"
#include "trace/validate.hpp"
#include "workloads/workload.hpp"

namespace {

using namespace tbp;

constexpr std::string_view kSynopsis =
    "<list|run|compare|simulate|lemma41> [args...]\n"
    "(see the header of tools/tbpoint_cli.cpp)";

/// The flags run, compare and simulate share: the workload and machine (a
/// tbpointd request spec) and the common flags.
struct WorkloadFlags {
  service::RequestSpec spec;
  bool validate = false;
  std::size_t jobs = 1;
  std::string metrics_path;
  std::string trace_path;
  std::string manifest_path;
};

WorkloadFlags read_workload_flags(harness::Args& args) {
  const std::string name = args.positional();
  if (name.empty()) args.usage_error();
  const std::vector<std::string> known = workloads::buildable_workload_names();
  if (std::find(known.begin(), known.end(), name) == known.end()) {
    std::string list;
    for (const std::string& k : known) list += (list.empty() ? "" : ", ") + k;
    args.die("unknown workload '" + name + "' (accepted: " + list + ")");
  }
  WorkloadFlags flags;
  flags.spec = service::read_spec(args, name);
  flags.validate = args.flag("--validate");
  flags.jobs = harness::read_jobs(args);
  flags.metrics_path = args.value("--metrics").value_or("");
  flags.trace_path = args.value("--trace").value_or("");
  flags.manifest_path = args.value("--manifest").value_or("");
  return flags;
}

/// The --metrics/--trace session for one subcommand; `session` is null when
/// neither flag was passed, so simulations record nothing.
struct CliObservation {
  std::string metrics_path;
  std::string trace_path;
  std::unique_ptr<obs::Observation> session;

  explicit CliObservation(const WorkloadFlags& flags)
      : metrics_path(flags.metrics_path), trace_path(flags.trace_path) {
    if (!metrics_path.empty() || !trace_path.empty()) {
      session = std::make_unique<obs::Observation>(
          /*metrics_on=*/!metrics_path.empty(),
          /*trace_on=*/!trace_path.empty());
    }
  }

  [[nodiscard]] obs::Observation* get() const noexcept { return session.get(); }

  /// Writes the requested files; returns false after printing on failure.
  [[nodiscard]] bool write() const {
    if (session == nullptr) return true;
    bool ok = true;
    if (!metrics_path.empty()) {
      const Status st =
          obs::write_metrics_file(session->merged_metrics(), metrics_path);
      if (st.ok()) {
        std::printf("wrote metrics %s\n", metrics_path.c_str());
      } else {
        std::fprintf(stderr, "cannot write %s: %s\n", metrics_path.c_str(),
                     st.to_string().c_str());
        ok = false;
      }
    }
    if (!trace_path.empty()) {
      const std::vector<obs::TraceEvent> events = session->merged_trace();
      const Status st = obs::write_trace_file(events, trace_path);
      if (st.ok()) {
        std::printf("wrote trace %s (%zu events; open in chrome://tracing "
                    "or https://ui.perfetto.dev)\n",
                    trace_path.c_str(), events.size());
      } else {
        std::fprintf(stderr, "cannot write %s: %s\n", trace_path.c_str(),
                     st.to_string().c_str());
        ok = false;
      }
    }
    return ok;
  }
};

/// When --validate was passed, checks every launch trace of the workload
/// against the simulator's contract; returns false (after printing the
/// violation report) if any launch is malformed.
bool validate_if_requested(const WorkloadFlags& flags,
                           const workloads::Workload& workload) {
  if (!flags.validate) return true;
  bool ok = true;
  const auto sources = workload.sources();
  for (std::size_t i = 0; i < sources.size(); ++i) {
    const trace::ValidationReport report = trace::validate_launch(*sources[i]);
    if (!report.ok()) {
      std::fprintf(stderr, "%s launch %zu: invalid trace: %s\n",
                   workload.name.c_str(), i, report.summary().c_str());
      ok = false;
    }
  }
  return ok;
}

/// Honors --manifest PATH for one subcommand; returns false after printing
/// on a write failure (no-op without the flag).  The "config" member is the
/// request spec: the flags that determine the results, never --jobs.
bool write_cli_manifest(const WorkloadFlags& flags, const std::string& command,
                        std::span<const harness::ExperimentRow> rows,
                        const obs::Observation* session) {
  const std::string& path = flags.manifest_path;
  if (path.empty()) return true;
  obs::MetricsSnapshot metrics;
  if (session != nullptr && session->metrics_on()) {
    metrics = session->merged_metrics();
  }
  const Status st = harness::write_manifest(
      harness::manifest_body("tbpoint_cli", command,
                             service::spec_config_value(flags.spec), rows,
                             metrics),
      path);
  if (!st.ok()) {
    std::fprintf(stderr, "cannot write %s: %s\n", path.c_str(),
                 st.to_string().c_str());
    return false;
  }
  std::printf("wrote manifest %s (render with: tbp-report show %s)\n",
              path.c_str(), path.c_str());
  return true;
}

int cmd_list(const harness::Args& args) {
  args.finish();
  for (const std::string& name : workloads::workload_names()) {
    std::printf("%s\n", name.c_str());
  }
  std::printf("binomial (Fig. 11 companion, opt-in)\n");
  return 0;
}

int cmd_run(harness::Args& args) {
  const WorkloadFlags flags = read_workload_flags(args);
  core::TBPointOptions options;
  options.jobs = flags.jobs;
  options.inter.distance_threshold =
      args.real("--inter-sigma").value_or(options.inter.distance_threshold);
  options.intra.distance_threshold =
      args.real("--intra-sigma").value_or(options.intra.distance_threshold);
  options.intra.variation_factor_threshold =
      args.real("--vf").value_or(options.intra.variation_factor_threshold);
  options.enable_inter = !args.flag("--no-inter");
  options.enable_intra = !args.flag("--no-intra");
  options.inter.include_bbv = args.flag("--bbv");
  args.finish();

  par::set_global_jobs(flags.jobs);
  const workloads::Workload workload =
      workloads::make_workload(flags.spec.workload, flags.spec.scale);
  if (!validate_if_requested(flags, workload)) return 1;
  const sim::GpuConfig config = service::spec_gpu_config(flags.spec);

  const auto sources = workload.sources();
  const profile::ApplicationProfile app =
      profile::profile_application(sources, flags.jobs);

  const CliObservation observation(flags);
  options.observe = observation.get();
  options.observe_key_prefix = workload.name + "/";

  const core::TBPointRun run =
      core::run_tbpoint(workload.sources(), app, config, options);
  std::printf("%s: %zu launch clusters, %zu representatives\n",
              workload.name.c_str(), run.inter.clusters.size(), run.reps.size());
  for (const core::RepresentativeRun& rep : run.reps) {
    std::printf("  launch %zu: %zu regions, sample %.1f%%, predicted IPC %.3f\n",
                rep.launch_index, rep.regions.table.regions().size(),
                100.0 * rep.prediction.sample_fraction(),
                rep.prediction.predicted_ipc);
  }
  std::printf("application: predicted IPC %.4f, total sample %.2f%% "
              "(inter skips %.1f%%, intra skips %.1f%% of skipped insts)\n",
              run.app.predicted_ipc, 100.0 * run.app.sample_fraction(),
              100.0 * run.app.inter_skip_share(),
              100.0 * (1.0 - run.app.inter_skip_share()));

  // `run` has no full-simulation ground truth, so the manifest row carries
  // the prediction with exact_ipc/error_pct zero and an invalid attribution
  // (use `compare` or `simulate` for attributed manifests).
  harness::ExperimentRow row;
  row.workload = workload.name;
  row.n_launches = sources.size();
  row.total_blocks = app.total_blocks();
  row.total_warp_insts = app.total_warp_insts();
  row.tbpoint.ipc = run.app.predicted_ipc;
  row.tbpoint.sample_pct = 100.0 * run.app.sample_fraction();
  row.inter_skip_share = run.app.inter_skip_share();
  row.tbp_clusters = run.inter.clusters.size();
  bool ok = write_cli_manifest(flags, "run", std::span(&row, 1),
                               observation.get());
  ok = observation.write() && ok;
  return ok ? 0 : 1;
}

int cmd_compare(harness::Args& args) {
  // The compare flags are exactly a tbpointd request spec; deriving the
  // config/manifest from it keeps this command byte-identical to the
  // service's responses by construction (the service smoke test cmps the
  // two outputs).
  const WorkloadFlags flags = read_workload_flags(args);
  args.finish();

  par::set_global_jobs(flags.jobs);
  const workloads::Workload workload =
      workloads::make_workload(flags.spec.workload, flags.spec.scale);
  if (!validate_if_requested(flags, workload)) return 1;
  const CliObservation observation(flags);
  harness::ComparisonOptions options;
  options.jobs = flags.jobs;
  options.observe = observation.get();
  const harness::ExperimentRow row = harness::run_comparison(
      workload, service::spec_gpu_config(flags.spec), options);

  harness::TablePrinter table({"method", "IPC", "error%", "sample%"});
  table.add_row({"Full", harness::fmt(row.full_ipc, 4), "-", "100"});
  table.add_row({"Random", harness::fmt(row.random.ipc, 4),
                 harness::fmt(row.random.err_pct, 2),
                 harness::fmt(row.random.sample_pct, 2)});
  table.add_row({"Systematic", harness::fmt(row.systematic.ipc, 4),
                 harness::fmt(row.systematic.err_pct, 2),
                 harness::fmt(row.systematic.sample_pct, 2)});
  table.add_row({"Ideal-SimPoint", harness::fmt(row.simpoint.ipc, 4),
                 harness::fmt(row.simpoint.err_pct, 2),
                 harness::fmt(row.simpoint.sample_pct, 2)});
  table.add_row({"TBPoint", harness::fmt(row.tbpoint.ipc, 4),
                 harness::fmt(row.tbpoint.err_pct, 2),
                 harness::fmt(row.tbpoint.sample_pct, 2)});
  table.print();
  std::printf("full sim %.3fs; TBPoint %.3fs\n", row.full_sim_seconds,
              row.tbp_seconds);
  if (row.attribution.valid) {
    std::printf("error attribution: total %+.3f%% = inter %+.3f%% + warmup "
                "%+.3f%% + recon %+.3f%%\n",
                row.attribution.total_error_pct(),
                row.attribution.inter_error_pct(),
                row.attribution.warmup_error_pct(),
                row.attribution.reconstruction_error_pct());
  }
  bool ok = write_cli_manifest(flags, "compare", std::span(&row, 1),
                               observation.get());
  ok = observation.write() && ok;
  return ok ? 0 : 1;
}

int cmd_simulate(harness::Args& args) {
  // Launches run serially here so diagnostics print in order; --jobs only
  // bounds the attribution pipeline that follows a full-application run.
  const WorkloadFlags flags = read_workload_flags(args);
  const std::size_t jobs = flags.jobs;
  const std::optional<std::uint64_t> only_launch = args.u64("--launch");
  sim::RunOptions base_options;
  base_options.max_cycles =
      args.u64("--max-cycles").value_or(base_options.max_cycles);
  base_options.stall_cycle_limit =
      args.u64("--stall-limit").value_or(base_options.stall_cycle_limit);
  args.finish();

  par::set_global_jobs(jobs);
  const workloads::Workload workload =
      workloads::make_workload(flags.spec.workload, flags.spec.scale);
  if (!validate_if_requested(flags, workload)) return 1;
  const sim::GpuConfig config = service::spec_gpu_config(flags.spec);
  const CliObservation observation(flags);

  const auto sources = workload.sources();
  std::size_t first = 0;
  std::size_t last = sources.size();
  if (only_launch.has_value()) {
    if (*only_launch >= sources.size()) {
      std::fprintf(stderr, "simulate: --launch %llu out of range (%zu launches)\n",
                   static_cast<unsigned long long>(*only_launch), sources.size());
      return 2;
    }
    first = static_cast<std::size_t>(*only_launch);
    last = first + 1;
  }

  int exit_code = 0;
  std::vector<core::LaunchExact> exact(sources.size());
  for (std::size_t i = first; i < last; ++i) {
    sim::RunOptions options = base_options;
    options.observe = sim::observe_launch(
        observation.get(), workload.name + "/full/" + obs::key_index(i));

    sim::GpuSimulator simulator(config);
    sim::WatchdogDiagnostic diagnostic;
    const Result<sim::LaunchResult> result =
        simulator.run_launch_checked(*sources[i], options, &diagnostic);
    if (!result.has_value()) {
      std::fprintf(stderr, "launch %zu: %s\n", i,
                   result.status().to_string().c_str());
      if (diagnostic.triggered) {
        // The structured diagnostic, human-readably: how long the machine
        // has been wedged, how far dispatch got, and which warps are stuck.
        std::fprintf(stderr,
                     "launch %zu watchdog: no forward progress for %llu "
                     "cycles (cycle %llu, %u/%u blocks dispatched)\n",
                     i, static_cast<unsigned long long>(diagnostic.stalled_cycles),
                     static_cast<unsigned long long>(diagnostic.cycle),
                     diagnostic.dispatched_blocks, diagnostic.n_blocks);
        for (const sim::SmDebugState& sm : diagnostic.sms) {
          if (sm.warps_wedged == 0) continue;
          std::fprintf(stderr,
                       "  SM %u: %u wedged warp(s) — trace ended without "
                       "kExit; re-run with --validate to pinpoint the launch\n",
                       sm.sm_id, sm.warps_wedged);
        }
      }
      exit_code = 1;
      continue;
    }

    const sim::LaunchResult& launch = *result;
    exact[i] = core::LaunchExact{.cycles = launch.cycles,
                                 .warp_insts = launch.sim_warp_insts};
    std::printf("launch %zu: %llu cycles, %llu warp insts, IPC %.4f, "
                "L1 hit %.1f%%, L2 hit %.1f%%, DRAM row hit %.1f%%\n",
                i, static_cast<unsigned long long>(launch.cycles),
                static_cast<unsigned long long>(launch.sim_warp_insts),
                launch.machine_ipc(), 100.0 * launch.mem.l1.hit_rate(),
                100.0 * launch.mem.l2.hit_rate(),
                100.0 * launch.mem.dram.row_hit_rate());
  }

  // With the whole application fully simulated we have a ground truth, so
  // run the TBPoint pipeline against it and attribute the prediction error
  // (skipped for --launch N runs and after any launch failure).
  std::vector<harness::ExperimentRow> manifest_rows;
  if (exit_code == 0 && first == 0 && last == sources.size() &&
      !sources.empty()) {
    const profile::ApplicationProfile app =
        profile::profile_application(sources, jobs);
    core::TBPointOptions tbp_options;
    tbp_options.jobs = jobs;
    tbp_options.observe = observation.get();
    tbp_options.observe_key_prefix = workload.name + "/";
    const core::TBPointRun run =
        core::run_tbpoint(sources, app, config, tbp_options);
    const core::ErrorAttribution attribution =
        core::attribute_errors(app, run, exact);
    if (attribution.valid) {
      std::printf("TBPoint error attribution: total %+.3f%% = inter %+.3f%% "
                  "+ warmup %+.3f%% + recon %+.3f%% "
                  "(exact IPC %.4f, predicted %.4f, sample %.2f%%)\n",
                  attribution.total_error_pct(), attribution.inter_error_pct(),
                  attribution.warmup_error_pct(),
                  attribution.reconstruction_error_pct(), attribution.exact_ipc,
                  attribution.predicted_ipc,
                  100.0 * run.app.sample_fraction());
      if (observation.get() != nullptr) {
        core::record_attribution(attribution,
                                 observation.get()->metrics_shard(
                                     workload.name + "/attribution"));
      }
      harness::ExperimentRow row;
      row.workload = workload.name;
      row.n_launches = sources.size();
      row.total_blocks = app.total_blocks();
      row.total_warp_insts = app.total_warp_insts();
      row.full_ipc = attribution.exact_ipc;
      row.tbpoint.ipc = attribution.predicted_ipc;
      row.tbpoint.err_pct = std::abs(attribution.total_error_pct());
      row.tbpoint.sample_pct = 100.0 * run.app.sample_fraction();
      row.inter_skip_share = run.app.inter_skip_share();
      row.tbp_clusters = run.inter.clusters.size();
      row.attribution = attribution;
      manifest_rows.push_back(std::move(row));
    }
  }
  if (!write_cli_manifest(flags, "simulate", manifest_rows,
                          observation.get())) {
    exit_code = exit_code == 0 ? 1 : exit_code;
  }
  if (!observation.write()) exit_code = exit_code == 0 ? 1 : exit_code;
  return exit_code;
}

int cmd_lemma41(harness::Args& args) {
  markov::MonteCarloConfig config;
  config.stall_probability = args.real("--p").value_or(0.1);
  if (!(config.stall_probability >= 0.0 && config.stall_probability <= 1.0)) {
    args.bad_value("--p", "must be in [0, 1]");
  }
  config.mean_stall_cycles = args.real("--m").value_or(400.0);
  if (!std::isfinite(config.mean_stall_cycles) ||
      config.mean_stall_cycles <= 0.0) {
    args.bad_value("--m", "must be a finite number > 0");
  }
  config.n_warps = args.u32("--warps").value_or(4);
  if (config.n_warps == 0) args.bad_value("--warps", "must be >= 1");
  config.n_samples = args.u32("--samples").value_or(10000);
  if (config.n_samples == 0) args.bad_value("--samples", "must be >= 1");
  args.finish();
  const markov::MonteCarloResult result = markov::run_ipc_variation(config);
  std::printf("p=%.3f M=%.0f N=%zu: mean IPC %.4f, %.1f%% of samples within "
              "10%% of mean -> Lemma 4.1 %s\n",
              config.stall_probability, config.mean_stall_cycles, config.n_warps,
              result.mean_ipc, 100.0 * result.fraction_within_10pct,
              markov::satisfies_lemma_4_1(result) ? "holds" : "VIOLATED");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  harness::Args args(argc, argv, "tbpoint_cli", kSynopsis);
  const std::string command = args.positional();
  if (command == "list") return cmd_list(args);
  if (command == "run") return cmd_run(args);
  if (command == "compare") return cmd_compare(args);
  if (command == "simulate") return cmd_simulate(args);
  if (command == "lemma41") return cmd_lemma41(args);
  args.usage_error();
}
