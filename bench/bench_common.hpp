// Shared plumbing for the figure benches: every main-comparison figure
// (9, 10, 11) is a view of the same four-way experiment, and the
// hardware-sensitivity figures (12, 13) sweep it across GPU configurations.
// Rows are produced through the harness result cache, so the expensive full
// simulations run once per (workload, config, options) no matter which
// bench binary asks first.
//
// Rows run in parallel under --jobs (and the launch simulations inside a
// row share the same budget through ComparisonOptions::jobs).  Output is
// bit-identical for every jobs value: rows land in slots indexed by their
// position in the benchmark list, never by completion order, and the list
// names each workload once (harness::read_benchmarks rejects a repeat), so
// no two concurrent rows compute or store one key.  Only the stderr
// progress interleaving and the wall-clock timing fields depend on jobs.
#pragma once

#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "harness/cache.hpp"
#include "harness/cli.hpp"
#include "harness/csv.hpp"
#include "harness/experiment.hpp"
#include "harness/manifest.hpp"
#include "harness/table.hpp"
#include "obs/export.hpp"
#include "obs/report.hpp"
#include "sim/config.hpp"
#include "support/parallel.hpp"
#include "support/walltime.hpp"
#include "workloads/workload.hpp"

namespace tbp::bench {

/// Reads the command line of a collect_rows bench: the common flags, and
/// --csv PATH into `*csv_path` when that is not null.
inline harness::CommonFlags read_bench_flags(int argc, char** argv,
                                             std::string* csv_path = nullptr) {
  std::string synopsis(harness::kCommonFlagsSynopsis);
  if (csv_path != nullptr) synopsis += " [--csv PATH]";
  harness::Args args(argc, argv, argv[0], synopsis);
  const harness::CommonFlags flags = harness::parse_common_flags(args);
  if (csv_path != nullptr) *csv_path = args.value("--csv").value_or("");
  args.finish();
  return flags;
}

/// Observation session for the --metrics/--trace flags; null when neither
/// flag was passed (the common case — nothing is allocated or recorded).
inline std::unique_ptr<obs::Observation> make_observation(
    const harness::CommonFlags& flags) {
  if (flags.metrics_path.empty() && flags.trace_path.empty()) return nullptr;
  return std::make_unique<obs::Observation>(
      /*metrics_on=*/!flags.metrics_path.empty(),
      /*trace_on=*/!flags.trace_path.empty());
}

/// Reports the write of a requested output file.  A failed write ends the
/// run with exit code 1, as in tbpoint_cli: a bench that could not write
/// what it was asked for must not look successful.
inline void check_written(const Status& status, const std::string& path) {
  if (status.ok()) {
    std::fprintf(stderr, "[bench] wrote %s\n", path.c_str());
    return;
  }
  std::fprintf(stderr, "[bench] cannot write %s: %s\n", path.c_str(),
               status.to_string().c_str());
  std::exit(1);
}

/// Writes the --metrics/--trace output files from `observe` (atomic writes;
/// empty paths are skipped).
inline void write_observation_outputs(const harness::CommonFlags& flags,
                                      const obs::Observation& observe) {
  if (!flags.metrics_path.empty()) {
    check_written(
        obs::write_metrics_file(observe.merged_metrics(), flags.metrics_path),
        flags.metrics_path);
  }
  if (!flags.trace_path.empty()) {
    check_written(obs::write_trace_file(observe.merged_trace(), flags.trace_path),
                  flags.trace_path);
  }
}

/// The reproducibility-relevant slice of a bench invocation for the run
/// manifest's "config" member: workload scaling, seed, benchmark subset and
/// GPU geometry.  Deliberately excludes --jobs, cache paths and anything
/// wall-clock-dependent — the manifest promises byte-identity across those.
inline obs::JsonValue flags_config_value(const harness::CommonFlags& flags,
                                         const sim::GpuConfig& config) {
  obs::JsonValue out = obs::JsonValue::object();
  out.set("scale_divisor", std::uint64_t{flags.scale.divisor});
  out.set("seed", flags.scale.seed);
  obs::JsonValue names = obs::JsonValue::array();
  for (const std::string& name : flags.benchmark_list()) {
    names.items().push_back(obs::JsonValue(name));
  }
  out.set("benchmarks", std::move(names));
  obs::JsonValue gpu = obs::JsonValue::object();
  gpu.set("n_sms", std::uint64_t{config.n_sms});
  gpu.set("max_warps_per_sm", std::uint64_t{config.max_warps_per_sm()});
  gpu.set("scheduler",
          config.scheduler == sim::WarpScheduler::kRoundRobin
              ? std::string("round_robin")
              : std::string("greedy_then_oldest"));
  gpu.set("l1_bytes", std::uint64_t{config.l1.bytes});
  gpu.set("l2_bytes", std::uint64_t{config.l2.bytes});
  gpu.set("n_channels", std::uint64_t{config.n_channels});
  out.set("gpu", std::move(gpu));
  return out;
}

/// Writes the --manifest file for one collect_rows invocation.  The body is
/// pure computation output (no clocks, no jobs), so the bytes are identical
/// for every --jobs value — pinned by tests/harness/manifest_determinism.
inline void write_bench_manifest(const harness::CommonFlags& flags,
                                 const sim::GpuConfig& config,
                                 std::span<const harness::ExperimentRow> rows,
                                 const obs::Observation* observe,
                                 const std::string& tool) {
  obs::MetricsSnapshot metrics;
  if (observe != nullptr && observe->metrics_on()) {
    metrics = observe->merged_metrics();
  }
  const obs::JsonValue body = harness::manifest_body(
      tool, "collect_rows", flags_config_value(flags, config), rows, metrics);
  check_written(harness::write_manifest(body, flags.manifest_path),
                flags.manifest_path);
}

/// Writes the --perf-json (BENCH_PERF.json) file: per-workload wall time and
/// simulation throughput plus cache-hit counters.  Wall-clock data, so no
/// byte-identity promise and no gate; perfbench is what measures time.
inline void write_bench_perf(const harness::CommonFlags& flags,
                             std::span<const harness::ExperimentRow> rows,
                             double wall_seconds, const std::string& tool) {
  obs::JsonValue entries = obs::JsonValue::object();
  double total_sim_seconds = 0.0;
  for (const harness::ExperimentRow& row : rows) {
    obs::JsonValue entry = obs::JsonValue::object();
    entry.set("wall_seconds", row.full_sim_seconds + row.tbp_seconds);
    entry.set("full_sim_seconds", row.full_sim_seconds);
    entry.set("tbp_seconds", row.tbp_seconds);
    entry.set("error_pct", row.tbpoint.err_pct);
    entry.set("from_cache", row.from_cache);
    // Exact-simulation throughput: cycles the full run simulated per
    // second of wall time.  The denominator is the row's own timing, so
    // cached rows report the original run's rate.
    const double full_cycles = row.full_ipc > 0.0
        ? static_cast<double>(row.total_warp_insts) / row.full_ipc
        : 0.0;
    entry.set("sim_cycles_per_second",
              row.full_sim_seconds > 0.0 ? full_cycles / row.full_sim_seconds
                                         : 0.0);
    if (const auto hits = row.metrics.counter("sim.l1.hits")) {
      const std::uint64_t misses =
          row.metrics.counter("sim.l1.misses").value_or(0);
      const double accesses = static_cast<double>(*hits + misses);
      entry.set("l1_hit_rate", accesses > 0.0
                                   ? static_cast<double>(*hits) / accesses
                                   : 0.0);
    }
    entries.set(row.workload, std::move(entry));
    total_sim_seconds += row.full_sim_seconds + row.tbp_seconds;
  }
  obs::JsonValue body = obs::JsonValue::object();
  body.set("bench", tool);
  body.set("entries", std::move(entries));
  body.set("total_sim_seconds", total_sim_seconds);
  body.set("wall_seconds", wall_seconds);
  // The parallelism the wall times were measured under.
  body.set("jobs", static_cast<std::uint64_t>(flags.jobs));
  body.set("nproc", static_cast<std::uint64_t>(par::default_jobs()));
  // Result-store traffic for this process (EXPERIMENTS.md "Result store"
  // reads the hit rate off repeated runs).  Cache-state-dependent, like
  // every other number in this document — the byte-deterministic run
  // manifest deliberately excludes it.
  {
    obs::MetricsShard cache_shard;
    harness::flush_cache_metrics(&cache_shard);
    obs::MetricsSnapshot cache_metrics;
    cache_metrics.absorb(cache_shard);
    obs::JsonValue store = obs::JsonValue::object();
    for (const std::string_view name :
         {"hits", "misses", "puts", "evictions", "quarantined", "rebuilds"}) {
      store.set(std::string(name),
                cache_metrics.counter("store." + std::string(name))
                    .value_or(0));
    }
    body.set("store", std::move(store));
  }
  check_written(
      obs::write_json_file(obs::seal_json(obs::kBenchPerfSchema, std::move(body)),
                           flags.perf_json_path),
      flags.perf_json_path);
}

/// Collects one comparison row per requested benchmark under `config`.
/// With --metrics/--trace set, the rows' simulations record into one
/// observation session and the files are written before returning (each
/// call rewrites them, so sweeps keep the last configuration's capture;
/// cached rows record nothing — pass --no-cache to capture everything).
/// With --manifest/--perf-json set, the run manifest and BENCH_PERF.json
/// are likewise (re)written before returning; `tool` names the emitting
/// bench binary inside both documents.
inline std::vector<harness::ExperimentRow> collect_rows(
    const harness::CommonFlags& flags, const sim::GpuConfig& config,
    harness::ComparisonOptions options = {},
    const std::string& tool = "bench") {
  const timing::WallTimer timer;
  par::set_global_jobs(flags.jobs);
  options.jobs = flags.jobs;
  const std::unique_ptr<obs::Observation> observe = make_observation(flags);
  if (observe != nullptr) options.observe = observe.get();
  const std::vector<std::string>& names = flags.benchmark_list();
  std::vector<harness::ExperimentRow> rows(names.size());
  par::parallel_for(names.size(), flags.jobs, [&](std::size_t i) {
    std::fprintf(stderr, "[bench] %s ...\n", names[i].c_str());
    rows[i] = harness::cached_comparison(names[i], flags.scale, config,
                                         options, flags.cache_dir);
    if (rows[i].from_cache) {
      // Cached rows carry wall-clock timings from the original run.
      std::fprintf(stderr, "[bench] %s: cached row (timings from original run)\n",
                   names[i].c_str());
      if (observe != nullptr) {
        std::fprintf(stderr,
                     "[bench] %s: cached row recorded no metrics/trace "
                     "(pass --no-cache to capture)\n",
                     names[i].c_str());
      }
    }
  });
  if (observe != nullptr) write_observation_outputs(flags, *observe);
  if (!flags.manifest_path.empty()) {
    write_bench_manifest(flags, config, rows, observe.get(), tool);
  }
  if (!flags.perf_json_path.empty()) {
    write_bench_perf(flags, rows, timer.seconds(), tool);
  }
  return rows;
}

/// Honors a `--csv PATH` flag by dumping the rows for plotting (no-op for
/// an empty path).
inline void maybe_write_csv(const std::string& path,
                            std::span<const harness::ExperimentRow> rows) {
  if (path.empty()) return;
  check_written(harness::write_rows_csv_file(rows, path), path);
}

/// The (W, S) sweep of Figs. 12/13: W warps per SM, S SMs.  (48, 14) is the
/// paper's Table V baseline.
struct HwConfig {
  std::uint32_t warps;
  std::uint32_t sms;

  [[nodiscard]] std::string label() const {
    return "W" + std::to_string(warps) + "S" + std::to_string(sms);
  }
};

inline const std::vector<HwConfig>& hw_sweep() {
  static const std::vector<HwConfig> configs = {
      {16, 7}, {32, 14}, {48, 14}, {32, 28}};
  return configs;
}

}  // namespace tbp::bench
