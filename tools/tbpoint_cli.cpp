// tbpoint_cli — the library as a command-line workflow.
//
//   tbpoint_cli list
//       Available benchmark models.
//   tbpoint_cli profile  <workload> -o profile.txt [--scale N] [--seed S]
//                        [--validate]
//       One-time functional profiling; writes the profile artifact.
//   tbpoint_cli regions  <profile.txt> --occupancy N [-o regions.txt]
//       Homogeneous-region identification from a saved profile (re-run per
//       hardware configuration; this is the cheap re-clustering step).
//   tbpoint_cli run      <workload> [--scale N] [--sms S] [--warps W]
//                        [--inter-sigma X] [--intra-sigma X] [--vf X]
//                        [--no-inter] [--no-intra] [--gto] [--validate]
//                        [--jobs N]
//       Full TBPoint pipeline; prints predicted IPC and sample size.
//   tbpoint_cli compare  <workload> [--scale N] [--sms S] [--warps W]
//                        [--validate] [--jobs N]
//       Four-way Full / Random / Ideal-SimPoint / TBPoint comparison.
//   tbpoint_cli simulate <workload> [--launch N] [--scale N] [--sms S]
//                        [--warps W] [--gto] [--max-cycles N]
//                        [--stall-limit N] [--validate]
//       Plain full simulation (all launches, or one with --launch),
//       printing per-launch cycles and IPC.  A deadlocked or over-budget
//       launch prints the watchdog diagnostic (stall age, dispatch
//       progress, per-SM warp scheduling states) instead of aborting.
//   tbpoint_cli lemma41  [--p X] [--m X] [--warps N] [--samples N]
//       Markov-chain Monte-Carlo check of the paper's Lemma 4.1.
//
// run, compare and simulate accept --metrics PATH and --trace PATH
// (--name=value also works): --metrics writes the merged counters and
// histograms (per-SM stall-cause breakdown, cache/DRAM counters, DRAM
// queue-depth histogram) as JSON; --trace writes a chrome://tracing
// timeline (open in Perfetto) with thread-block spans per SM, fixed-unit
// boundaries and the region sampler's warm-up/fast-forward phases.
//
// run, compare and simulate also accept --manifest PATH: a sealed
// tbp-manifest-v1 run manifest (flags, seed, results, error attribution,
// metrics snapshot; render with `tbp-report show`).  The body contains no
// wall-clock data and no --jobs value, so the bytes are identical for every
// --jobs setting.  `simulate` without --launch additionally runs the
// TBPoint pipeline against the just-computed full-simulation ground truth
// and prints the error-decomposition summary (inter/warmup/reconstruction
// components; DESIGN.md "Accuracy attribution"); with --metrics the
// decomposition is also exported as core.attr.* counters.
//
// --validate runs trace::validate_launch over every launch of the workload
// before simulating and fails with the violation report if a trace breaks
// the simulator's contract.  All numeric flag values are parsed strictly:
// malformed numbers are a usage error (exit 2), never silently zero.
// --jobs N (default: hardware concurrency) bounds the parallelism of the
// independent launch profiles/simulations; every value produces the same
// numbers — only wall-clock changes.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "baselines/ideal_simpoint.hpp"
#include "baselines/random_sampling.hpp"
#include "core/attribution.hpp"
#include "core/region_io.hpp"
#include "core/tbpoint.hpp"
#include "harness/cli.hpp"
#include "harness/manifest.hpp"
#include "obs/export.hpp"
#include "harness/experiment.hpp"
#include "harness/table.hpp"
#include "markov/monte_carlo.hpp"
#include "profile/profile_io.hpp"
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

[[noreturn]] void usage() {
  std::fprintf(stderr,
               "usage: tbpoint_cli "
               "<list|profile|regions|run|compare|simulate|lemma41> "
               "[args...]\n(see the header of tools/tbpoint_cli.cpp)\n");
  std::exit(2);
}

[[noreturn]] void bad_flag_value(const std::string& name, const Status& status) {
  std::fprintf(stderr, "tbpoint_cli: invalid value for %s: %s\n", name.c_str(),
               status.message().c_str());
  std::exit(2);
}

double flag_double(int argc, char** argv, const std::string& name, double fb) {
  const std::string v = harness::flag_value(argc, argv, name, "");
  if (v.empty()) return fb;
  const Result<double> parsed = harness::parse_double(v);
  if (!parsed.has_value()) bad_flag_value(name, parsed.status());
  return *parsed;
}

std::uint32_t flag_u32(int argc, char** argv, const std::string& name,
                       std::uint32_t fb) {
  const std::string v = harness::flag_value(argc, argv, name, "");
  if (v.empty()) return fb;
  const Result<std::uint32_t> parsed = harness::parse_u32(v);
  if (!parsed.has_value()) bad_flag_value(name, parsed.status());
  return *parsed;
}

std::uint64_t flag_u64(int argc, char** argv, const std::string& name,
                       std::uint64_t fb) {
  const std::string v = harness::flag_value(argc, argv, name, "");
  if (v.empty()) return fb;
  const Result<std::uint64_t> parsed = harness::parse_u64(v);
  if (!parsed.has_value()) bad_flag_value(name, parsed.status());
  return *parsed;
}

/// The --metrics/--trace session for one subcommand; `session` is null when
/// neither flag was passed, so simulations record nothing.
struct CliObservation {
  std::string metrics_path;
  std::string trace_path;
  std::unique_ptr<obs::Observation> session;

  static CliObservation from_flags(int argc, char** argv) {
    CliObservation out;
    out.metrics_path = harness::flag_value(argc, argv, "--metrics", "");
    out.trace_path = harness::flag_value(argc, argv, "--trace", "");
    if (!out.metrics_path.empty() || !out.trace_path.empty()) {
      out.session = std::make_unique<obs::Observation>(
          /*metrics_on=*/!out.metrics_path.empty(),
          /*trace_on=*/!out.trace_path.empty());
    }
    return out;
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

/// Strict --jobs parsing (default: hardware concurrency); also sizes the
/// process-wide pool so nested parallel sections share one thread budget.
std::size_t jobs_from_flags(int argc, char** argv) {
  const std::uint32_t jobs = flag_u32(
      argc, argv, "--jobs", static_cast<std::uint32_t>(par::default_jobs()));
  if (jobs == 0) {
    std::fprintf(stderr, "tbpoint_cli: invalid value for --jobs: must be >= 1\n");
    std::exit(2);
  }
  par::set_global_jobs(jobs);
  return jobs;
}

workloads::WorkloadScale scale_from_flags(int argc, char** argv) {
  workloads::WorkloadScale scale;
  scale.divisor = flag_u32(argc, argv, "--scale", 4);
  if (const Status st = harness::validate_scale(scale); !st.ok()) {
    std::fprintf(stderr, "tbpoint_cli: invalid value for --scale: %s\n",
                 st.message().c_str());
    std::exit(2);
  }
  const Result<std::uint64_t> seed = harness::parse_u64(
      harness::flag_value(argc, argv, "--seed", "0x7b90147"), /*base=*/0);
  if (!seed.has_value()) bad_flag_value("--seed", seed.status());
  scale.seed = *seed;
  return scale;
}

/// When --validate was passed, checks every launch trace of the workload
/// against the simulator's contract; returns false (after printing the
/// violation report) if any launch is malformed.
bool validate_if_requested(int argc, char** argv,
                           const workloads::Workload& workload) {
  if (!harness::has_flag(argc, argv, "--validate")) return true;
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

sim::GpuConfig config_from_flags(int argc, char** argv) {
  const std::uint32_t sms = flag_u32(argc, argv, "--sms", 14);
  const std::uint32_t warps = flag_u32(argc, argv, "--warps", 48);
  sim::GpuConfig config = (sms == 14 && warps == 48)
                              ? sim::fermi_config()
                              : sim::scaled_config(warps, sms);
  if (harness::has_flag(argc, argv, "--gto")) {
    config.scheduler = sim::WarpScheduler::kGreedyThenOldest;
  }
  return config;
}

/// The "config" member of a --manifest document: the flags that determine
/// the results.  Deliberately excludes --jobs and anything wall-clock-
/// dependent, so the manifest bytes are identical for every --jobs value.
obs::JsonValue cli_config_value(int argc, char** argv,
                                const workloads::Workload& workload,
                                const sim::GpuConfig& config) {
  obs::JsonValue out = obs::JsonValue::object();
  out.set("workload", workload.name);
  const workloads::WorkloadScale scale = scale_from_flags(argc, argv);
  out.set("scale_divisor", std::uint64_t{scale.divisor});
  out.set("seed", scale.seed);
  obs::JsonValue gpu = obs::JsonValue::object();
  gpu.set("n_sms", std::uint64_t{config.n_sms});
  gpu.set("max_warps_per_sm", std::uint64_t{config.max_warps_per_sm()});
  gpu.set("scheduler",
          config.scheduler == sim::WarpScheduler::kRoundRobin
              ? std::string("round_robin")
              : std::string("greedy_then_oldest"));
  out.set("gpu", std::move(gpu));
  return out;
}

/// Honors --manifest PATH for one subcommand; returns false after printing
/// on a write failure (no-op without the flag).
bool write_cli_manifest(int argc, char** argv, const std::string& command,
                        obs::JsonValue config,
                        std::span<const harness::ExperimentRow> rows,
                        const obs::Observation* session) {
  const std::string path = harness::flag_value(argc, argv, "--manifest", "");
  if (path.empty()) return true;
  obs::MetricsSnapshot metrics;
  if (session != nullptr && session->metrics_on()) {
    metrics = session->merged_metrics();
  }
  const Status st = harness::write_manifest(
      harness::manifest_body("tbpoint_cli", command, std::move(config), rows,
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

int cmd_list() {
  for (const std::string& name : workloads::workload_names()) {
    std::printf("%s\n", name.c_str());
  }
  std::printf("binomial (Fig. 11 companion, opt-in)\n");
  return 0;
}

int cmd_profile(int argc, char** argv) {
  if (argc < 3) usage();
  const std::string out_path = harness::flag_value(argc, argv, "-o", "profile.txt");
  const workloads::Workload workload =
      workloads::make_workload(argv[2], scale_from_flags(argc, argv));
  if (!validate_if_requested(argc, argv, workload)) return 1;

  profile::ApplicationProfile app;
  for (const auto* source : workload.sources()) {
    app.launches.push_back(profile::profile_launch(*source));
  }
  if (const Status st = profile::save_profile_file(app, out_path); !st.ok()) {
    std::fprintf(stderr, "cannot write %s: %s\n", out_path.c_str(),
                 st.to_string().c_str());
    return 1;
  }
  std::printf("profiled %zu launches / %llu blocks / %llu warp insts -> %s\n",
              app.launches.size(),
              static_cast<unsigned long long>(app.total_blocks()),
              static_cast<unsigned long long>(app.total_warp_insts()),
              out_path.c_str());
  return 0;
}

int cmd_regions(int argc, char** argv) {
  if (argc < 3) usage();
  const std::uint32_t occupancy = flag_u32(argc, argv, "--occupancy", 0);
  if (occupancy == 0) {
    std::fprintf(stderr, "regions: --occupancy N is required\n");
    return 2;
  }
  const auto app = profile::load_profile_file(argv[2]);
  if (!app.has_value()) {
    std::fprintf(stderr, "cannot read profile %s: %s\n", argv[2],
                 app.status().to_string().c_str());
    return 1;
  }

  core::IntraLaunchOptions options;
  options.distance_threshold = flag_double(argc, argv, "--intra-sigma", 0.2);
  options.variation_factor_threshold = flag_double(argc, argv, "--vf", 0.3);

  core::RegionTableSet set;
  set.system_occupancy = occupancy;
  std::size_t total_regions = 0;
  for (const profile::LaunchProfile& launch : app->launches) {
    core::RegionIdentification id =
        core::identify_regions(launch, occupancy, options);
    total_regions += id.table.regions().size();
    set.tables.push_back(std::move(id.table));
  }
  const std::string out_path = harness::flag_value(argc, argv, "-o", "regions.txt");
  if (const Status st = core::save_region_tables_file(set, out_path); !st.ok()) {
    std::fprintf(stderr, "cannot write %s: %s\n", out_path.c_str(),
                 st.to_string().c_str());
    return 1;
  }
  std::printf("identified %zu homogeneous regions across %zu launches -> %s\n",
              total_regions, set.tables.size(), out_path.c_str());
  return 0;
}

int cmd_run(int argc, char** argv) {
  if (argc < 3) usage();
  const std::size_t jobs = jobs_from_flags(argc, argv);
  const workloads::Workload workload =
      workloads::make_workload(argv[2], scale_from_flags(argc, argv));
  if (!validate_if_requested(argc, argv, workload)) return 1;
  const sim::GpuConfig config = config_from_flags(argc, argv);

  const auto sources = workload.sources();
  profile::ApplicationProfile app;
  app.launches.resize(sources.size());
  par::parallel_for(sources.size(), jobs, [&](std::size_t i) {
    app.launches[i] = profile::profile_launch(*sources[i]);
  });

  core::TBPointOptions options;
  options.jobs = jobs;
  options.inter.distance_threshold = flag_double(argc, argv, "--inter-sigma", 0.1);
  options.intra.distance_threshold = flag_double(argc, argv, "--intra-sigma", 0.2);
  options.intra.variation_factor_threshold = flag_double(argc, argv, "--vf", 0.3);
  options.enable_inter = !harness::has_flag(argc, argv, "--no-inter");
  options.enable_intra = !harness::has_flag(argc, argv, "--no-intra");
  options.inter.include_bbv = harness::has_flag(argc, argv, "--bbv");

  const CliObservation observation = CliObservation::from_flags(argc, argv);
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
  bool ok = write_cli_manifest(argc, argv, "run",
                               cli_config_value(argc, argv, workload, config),
                               std::span(&row, 1), observation.get());
  ok = observation.write() && ok;
  return ok ? 0 : 1;
}

int cmd_compare(int argc, char** argv) {
  if (argc < 3) usage();
  harness::ComparisonOptions options;
  options.jobs = jobs_from_flags(argc, argv);
  // The compare flags are exactly a tbpointd request spec; building one and
  // deriving the config/manifest from it keeps this command byte-identical
  // to the service's responses by construction (the service smoke test cmps
  // the two outputs).
  service::RequestSpec spec;
  spec.workload = argv[2];
  spec.scale = scale_from_flags(argc, argv);
  spec.sms = flag_u32(argc, argv, "--sms", 14);
  spec.warps = flag_u32(argc, argv, "--warps", 48);
  spec.gto = harness::has_flag(argc, argv, "--gto");
  const workloads::Workload workload =
      workloads::make_workload(spec.workload, spec.scale);
  if (!validate_if_requested(argc, argv, workload)) return 1;
  const sim::GpuConfig config = service::spec_gpu_config(spec);
  const CliObservation observation = CliObservation::from_flags(argc, argv);
  options.observe = observation.get();
  const harness::ExperimentRow row =
      harness::run_comparison(workload, config, options);

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
  std::printf("full sim %.2fs; TBPoint %.2fs\n", row.full_sim_seconds,
              row.tbp_seconds);
  if (row.attribution.valid) {
    std::printf("error attribution: total %+.3f%% = inter %+.3f%% + warmup "
                "%+.3f%% + recon %+.3f%%\n",
                row.attribution.total_error_pct(),
                row.attribution.inter_error_pct(),
                row.attribution.warmup_error_pct(),
                row.attribution.reconstruction_error_pct());
  }
  bool ok = write_cli_manifest(argc, argv, "compare",
                               service::spec_config_value(spec),
                               std::span(&row, 1), observation.get());
  ok = observation.write() && ok;
  return ok ? 0 : 1;
}

int cmd_simulate(int argc, char** argv) {
  if (argc < 3) usage();
  // Launches run serially here so diagnostics print in order; --jobs only
  // bounds the attribution pipeline that follows a full-application run.
  const std::size_t jobs = jobs_from_flags(argc, argv);
  const workloads::Workload workload =
      workloads::make_workload(argv[2], scale_from_flags(argc, argv));
  if (!validate_if_requested(argc, argv, workload)) return 1;
  const sim::GpuConfig config = config_from_flags(argc, argv);
  const CliObservation observation = CliObservation::from_flags(argc, argv);

  sim::RunOptions base_options;
  base_options.max_cycles =
      flag_u64(argc, argv, "--max-cycles", base_options.max_cycles);
  base_options.stall_cycle_limit =
      flag_u64(argc, argv, "--stall-limit", base_options.stall_cycle_limit);

  const auto sources = workload.sources();
  std::size_t first = 0;
  std::size_t last = sources.size();
  if (const std::string sel = harness::flag_value(argc, argv, "--launch", "");
      !sel.empty()) {
    const Result<std::uint64_t> index = harness::parse_u64(sel);
    if (!index.has_value()) bad_flag_value("--launch", index.status());
    if (*index >= sources.size()) {
      std::fprintf(stderr, "simulate: --launch %llu out of range (%zu launches)\n",
                   static_cast<unsigned long long>(*index), sources.size());
      return 2;
    }
    first = static_cast<std::size_t>(*index);
    last = first + 1;
  }

  int exit_code = 0;
  std::vector<core::LaunchExact> exact(sources.size());
  for (std::size_t i = first; i < last; ++i) {
    sim::RunOptions options = base_options;
    if (observation.get() != nullptr) {
      const std::string key = workload.name + "/full/" + obs::key_index(i);
      const std::uint32_t pid = static_cast<std::uint32_t>(i);
      options.observe = sim::LaunchObservation{
          .metrics = observation.get()->metrics_shard(key),
          .trace = observation.get()->trace_buffer(key),
          .pid = pid,
      };
      if (options.observe.trace != nullptr) {
        options.observe.trace->process_name(
            pid, workload.name + ": launch " + std::to_string(i));
      }
    }

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
    profile::ApplicationProfile app;
    app.launches.resize(sources.size());
    par::parallel_for(sources.size(), jobs, [&](std::size_t i) {
      app.launches[i] = profile::profile_launch(*sources[i]);
    });
    core::TBPointOptions tbp_options;
    tbp_options.jobs = jobs;
    tbp_options.observe = observation.get();
    tbp_options.observe_key_prefix = workload.name + "/tbp/";
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
  if (!write_cli_manifest(argc, argv, "simulate",
                          cli_config_value(argc, argv, workload, config),
                          manifest_rows, observation.get())) {
    exit_code = exit_code == 0 ? 1 : exit_code;
  }
  if (!observation.write()) exit_code = exit_code == 0 ? 1 : exit_code;
  return exit_code;
}

int cmd_lemma41(int argc, char** argv) {
  markov::MonteCarloConfig config;
  config.stall_probability = flag_double(argc, argv, "--p", 0.1);
  config.mean_stall_cycles = flag_double(argc, argv, "--m", 400.0);
  config.n_warps = flag_u32(argc, argv, "--warps", 4);
  config.n_samples = flag_u32(argc, argv, "--samples", 10000);
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
  if (argc < 2) usage();
  const std::string command = argv[1];
  if (command == "list") return cmd_list();
  if (command == "profile") return cmd_profile(argc, argv);
  if (command == "regions") return cmd_regions(argc, argv);
  if (command == "run") return cmd_run(argc, argv);
  if (command == "compare") return cmd_compare(argc, argv);
  if (command == "simulate") return cmd_simulate(argc, argv);
  if (command == "lemma41") return cmd_lemma41(argc, argv);
  usage();
}
