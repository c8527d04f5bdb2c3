// tbp_perfbench: runs one benchmark workload and prints its metrics.
//
//   tbp_perfbench --workload NAME --seed N --seconds S --trace 0|1
//
// Spans and scratch result stores go to .bench_out/ under the working
// directory.
// --trace 0 repeats the end-to-end pass (the fig9 path: run_comparison per
// row, cached_comparison where the workload uses the result store) for as
// many rounds as fit in --seconds at the workload's nominal pass time, and
// reports the end-to-end metrics' medians.  --trace 1 runs one untraced and
// one traced pass per round (traced.hpp) and reports per-layer metrics
// derived from the traced pass's spans.  Both modes check the outputs; the
// last stdout line is one JSON object
//   {"correct":..,"attempted":..,"failed":..,"values":{name:value,..}}
// which perfbench/run.py turns into the benchmark's result line.
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "harness/cache.hpp"
#include "harness/experiment.hpp"
#include "harness/table.hpp"
#include "obs/export.hpp"
#include "sim/config.hpp"
#include "spans.hpp"
#include "support/parallel.hpp"
#include "support/walltime.hpp"
#include "traced.hpp"
#include "workloads/workload.hpp"

namespace tbp::perfbench {
namespace {

struct WorkloadSpec {
  std::string name;
  std::vector<std::string> rows;
  std::uint32_t divisor = 16;
  std::size_t jobs = 1;
  /// Rows go through the result store: one cold pass into an empty store,
  /// then kWarmPasses passes that re-request every row.
  bool store = false;
  /// Seconds one untraced pass takes on the reference host (4 cores).
  /// Turns --seconds into a fixed number of rounds, so every run of a
  /// workload takes the median over the same number of passes.
  double pass_s = 1.0;
};

constexpr int kWarmPasses = 2;
/// Set-ups timed before the first round and after every round; each pass
/// adds one more sample.  Spreading them over the run keeps one noisy
/// instant of the host from deciding setup_s.
constexpr int kSetupRepeats = 15;
/// The fuzz oracle's calibrated TBPoint error bound.
constexpr double kMaxTbpErrPct = 15.0;

const std::vector<WorkloadSpec>& workload_specs() {
  static const std::vector<WorkloadSpec> specs = {
      {"memory-bound", {"mri"}, 16, 4, false, 25.0},
      {"irregular-serial", {"bfs", "mst"}, 16, 1, false, 19.0},
      {"figure-suite",
       {"lbm", "cfd", "kmeans", "hotspot", "stream", "black", "conv", "spmv"},
       8, 4, true, 7.5},
      // Small enough for the benchmark's own tests; not in BENCHMARK.json.
      {"tiny", {"hotspot", "stream"}, 64, 1, true, 3.0},
  };
  return specs;
}

// ---- Checks -------------------------------------------------------------

class Checks {
 public:
  void expect(bool ok, const std::string& what) {
    attempted_.fetch_add(1);
    if (ok) return;
    failed_.fetch_add(1);
    std::fprintf(stderr, "[perfbench] check failed: %s\n", what.c_str());
  }
  [[nodiscard]] std::size_t attempted() const { return attempted_.load(); }
  [[nodiscard]] std::size_t failed() const { return failed_.load(); }

 private:
  std::atomic<std::size_t> attempted_{0};
  std::atomic<std::size_t> failed_{0};
};

bool same_bits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

bool same_method(const harness::MethodResult& a, const harness::MethodResult& b) {
  return same_bits(a.ipc, b.ipc) && same_bits(a.err_pct, b.err_pct) &&
         same_bits(a.sample_pct, b.sample_pct);
}

/// Every result field the row codec persists, compared bit for bit.
bool same_results(const harness::ExperimentRow& a, const harness::ExperimentRow& b) {
  return a.workload == b.workload && a.irregular == b.irregular &&
         a.n_launches == b.n_launches && a.total_blocks == b.total_blocks &&
         a.total_warp_insts == b.total_warp_insts && same_bits(a.full_ipc, b.full_ipc) &&
         same_method(a.random, b.random) && same_method(a.simpoint, b.simpoint) &&
         same_method(a.tbpoint, b.tbpoint) && same_method(a.systematic, b.systematic) &&
         same_bits(a.inter_skip_share, b.inter_skip_share) &&
         a.simpoint_k == b.simpoint_k && a.tbp_clusters == b.tbp_clusters &&
         a.unit_insts == b.unit_insts;
}

/// Checks every freshly computed row must pass.
void check_row(Checks& checks, const harness::ExperimentRow& row) {
  checks.expect(row.total_warp_insts == row.full_retired_warp_insts,
                row.workload + ": profiler warp insts == simulator retired");
  checks.expect(row.tbpoint.err_pct <= kMaxTbpErrPct,
                row.workload + ": TBPoint error within 15%");
}

// ---- Digests ------------------------------------------------------------

std::uint64_t fnv1a(std::string_view text, std::uint64_t hash = 0xcbf29ce484222325ull) {
  for (const char c : text) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 0x100000001b3ull;
  }
  return hash;
}

std::string hex64(std::uint64_t value) {
  char buf[20];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(value));
  return buf;
}

/// The deterministic outputs of one row, with exact (hex) floats.
std::string row_record(const harness::ExperimentRow& row) {
  char buf[512];
  std::snprintf(buf, sizeof buf,
                "%s insts=%llu full=%a tbp=%a tbp_sample=%a random=%a "
                "simpoint=%a k=%zu systematic=%a clusters=%zu\n",
                row.workload.c_str(), static_cast<unsigned long long>(row.total_warp_insts),
                row.full_ipc, row.tbpoint.ipc, row.tbpoint.sample_pct, row.random.ipc,
                row.simpoint.ipc, row.simpoint_k, row.systematic.ipc, row.tbp_clusters);
  return buf;
}

std::uint64_t results_digest(const std::vector<harness::ExperimentRow>& rows) {
  std::uint64_t hash = fnv1a("");
  for (const harness::ExperimentRow& row : rows) hash = fnv1a(row_record(row), hash);
  return hash;
}

// ---- Statistics ---------------------------------------------------------

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

/// Nearest-rank percentile `pct` of `sorted`.
double percentile(const std::vector<double>& sorted, double pct) {
  if (sorted.empty()) return 0.0;
  const double rank = std::ceil(pct / 100.0 * static_cast<double>(sorted.size()));
  const std::size_t index = static_cast<std::size_t>(std::max(rank, 1.0)) - 1;
  return sorted[std::min(index, sorted.size() - 1)];
}

/// The highest of the usual percentiles that leaves at least ten samples
/// beyond it; 100 (the maximum) when there are too few samples.
double tail_percentile(std::size_t n) {
  for (const double pct : {99.9, 99.0, 95.0, 90.0, 75.0, 50.0}) {
    if (static_cast<double>(n) * (1.0 - pct / 100.0) >= 10.0) return pct;
  }
  return 100.0;
}

using Values = std::map<std::string, double>;

/// Per-key median over the rounds of one run.
Values median_values(const std::vector<Values>& rounds) {
  std::map<std::string, std::vector<double>> samples;
  for (const Values& round : rounds) {
    for (const auto& [name, value] : round) samples[name].push_back(value);
  }
  Values out;
  for (auto& [name, values] : samples) out[name] = median(std::move(values));
  return out;
}

// ---- Set-up and passes --------------------------------------------------

double peak_rss_mb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

struct Setup {
  sim::GpuConfig config;
  std::vector<workloads::Workload> models;
  double seconds = 0.0;
};

/// Workload models, GPU configuration and an empty (absent) result store.
Setup set_up(const WorkloadSpec& spec, const workloads::WorkloadScale& scale,
             const std::filesystem::path& store_dir) {
  const timing::WallTimer timer;
  Setup setup;
  setup.config = sim::fermi_config();
  setup.models.reserve(spec.rows.size());
  for (const std::string& name : spec.rows) {
    setup.models.push_back(workloads::make_workload(name, scale));
  }
  std::filesystem::remove_all(store_dir);
  setup.seconds = timer.seconds();
  return setup;
}

struct Context {
  const WorkloadSpec& spec;
  workloads::WorkloadScale scale{};
  harness::ComparisonOptions options{};
  std::filesystem::path out_dir;
  Checks checks{};
  std::vector<double> setup_samples{};
  int store_serial = 0;

  /// A store directory no earlier pass of this process has opened (the
  /// harness keeps opened stores for the process lifetime).
  std::filesystem::path fresh_store_dir() {
    return out_dir / ("store-" + std::to_string(::getpid()) + "-" +
                      std::to_string(store_serial++));
  }
};

struct Pass {
  double wall_s = 0.0;
  std::vector<harness::ExperimentRow> rows;
};

/// The end-to-end pass, tracing off: the path fig9_overall_ipc drives.
Pass untraced_pass(Context& ctx) {
  const WorkloadSpec& spec = ctx.spec;
  const std::filesystem::path store_dir = ctx.fresh_store_dir();
  const std::size_t n = spec.rows.size();
  const timing::WallTimer wall;
  const Setup setup = set_up(spec, ctx.scale, store_dir);
  Pass pass;
  pass.rows.resize(n);
  if (!spec.store) {
    par::parallel_for(n, spec.jobs, [&](std::size_t i) {
      pass.rows[i] = harness::run_comparison(setup.models[i], setup.config, ctx.options);
    });
  } else {
    std::vector<std::vector<harness::ExperimentRow>> requests(
        1 + kWarmPasses, std::vector<harness::ExperimentRow>(n));
    for (std::vector<harness::ExperimentRow>& request : requests) {
      par::parallel_for(n, spec.jobs, [&](std::size_t i) {
        request[i] = harness::cached_comparison(spec.rows[i], ctx.scale, setup.config,
                                                ctx.options, store_dir.string());
      });
    }
    pass.rows = requests[0];
    for (std::size_t r = 0; r < requests.size(); ++r) {
      for (std::size_t i = 0; i < n; ++i) {
        const harness::ExperimentRow& row = requests[r][i];
        ctx.checks.expect(row.from_cache == (r > 0),
                          row.workload + ": cold pass computes, warm passes hit");
        ctx.checks.expect(same_results(row, pass.rows[i]),
                          row.workload + ": warm row equals the row put");
      }
    }
  }
  pass.wall_s = wall.seconds();
  ctx.setup_samples.push_back(setup.seconds);
  std::filesystem::remove_all(store_dir);
  for (const harness::ExperimentRow& row : pass.rows) check_row(ctx.checks, row);
  return pass;
}

Values end_to_end_values(const Pass& pass) {
  double full_s = 0.0;
  double tbp_s = 0.0;
  double cycles = 0.0;
  double insts = 0.0;
  double sampled = 0.0;
  std::vector<double> errors;
  for (const harness::ExperimentRow& row : pass.rows) {
    full_s += row.full_sim_seconds;
    tbp_s += row.tbp_seconds;
    cycles += static_cast<double>(row.full_retired_warp_insts) / row.full_ipc;
    insts += static_cast<double>(row.total_warp_insts);
    sampled += row.tbpoint.sample_pct * static_cast<double>(row.total_warp_insts);
    errors.push_back(row.tbpoint.err_pct);
  }
  return {
      {"wall_s", pass.wall_s},
      {"full_sim_s", full_s},
      {"tbp_s", tbp_s},
      {"sim_kcycles_per_s", cycles / full_s / 1e3},
      {"tbp_err_pct", harness::geomean_pct(errors)},
      {"tbp_sample_pct", sampled / insts},
  };
}

struct StoreCounts {
  std::atomic<std::size_t> puts{0};
  std::atomic<std::size_t> gets{0};
  std::atomic<std::size_t> hits{0};
};

struct TracedPass {
  double wall_s = 0.0;
  double setup_s = 0.0;
  std::vector<TracedRow> rows;
  std::vector<Span> spans;
  obs::MetricsSnapshot counts;
  std::size_t puts = 0;
  std::size_t gets = 0;
  std::size_t hits = 0;
};

/// The same work as untraced_pass, rebuilt from the layer calls with a span
/// around each.  Top-level spans are "setup", one "row" per row and, with
/// the store, one "row.warm" per row and warm pass.
TracedPass traced_pass(Context& ctx) {
  const WorkloadSpec& spec = ctx.spec;
  const std::filesystem::path store_dir = ctx.fresh_store_dir();
  const std::size_t n = spec.rows.size();
  SpanLog log;
  obs::Observation observe(/*metrics_on=*/true, /*trace_on=*/false);
  StoreCounts store;
  TracedPass pass;
  pass.rows.resize(n);
  std::vector<std::string> keys(n);

  const timing::WallTimer wall;
  const Setup setup = [&] {
    const ScopedSpan span(log, "setup", kNoParent, -1);
    return set_up(spec, ctx.scale, store_dir);
  }();
  par::parallel_for(n, spec.jobs, [&](std::size_t i) {
    const int row_index = static_cast<int>(i);
    const ScopedSpan row_span(log, "row", kNoParent, row_index);
    if (!spec.store) {
      pass.rows[i] = traced_comparison(setup.models[i], setup.config, ctx.options, log,
                                       row_span.id(), row_index, observe);
      return;
    }
    // cached_comparison's miss path: look up, build the model, compute, put.
    keys[i] = harness::experiment_key(spec.rows[i], ctx.scale, setup.config, ctx.options);
    {
      const ScopedSpan span(log, "store.get", row_span.id(), row_index);
      const Result<harness::ExperimentRow> cold =
          harness::load_cached_row(store_dir.string(), keys[i]);
      store.gets.fetch_add(1);
      ctx.checks.expect(!cold.has_value(), spec.rows[i] + ": empty store misses");
    }
    const workloads::Workload model = [&] {
      const ScopedSpan span(log, "workloads.build", row_span.id(), row_index);
      return workloads::make_workload(spec.rows[i], ctx.scale);
    }();
    pass.rows[i] = traced_comparison(model, setup.config, ctx.options, log, row_span.id(),
                                     row_index, observe);
    const ScopedSpan span(log, "store.put", row_span.id(), row_index);
    const Status put = harness::save_cached_row(store_dir.string(), keys[i], pass.rows[i].row);
    store.puts.fetch_add(1);
    ctx.checks.expect(put.ok(), spec.rows[i] + ": store put succeeds");
  });
  for (int warm = 0; spec.store && warm < kWarmPasses; ++warm) {
    par::parallel_for(n, spec.jobs, [&](std::size_t i) {
      const int row_index = static_cast<int>(i);
      const ScopedSpan row_span(log, "row.warm", kNoParent, row_index);
      const ScopedSpan span(log, "store.get", row_span.id(), row_index);
      const Result<harness::ExperimentRow> got =
          harness::load_cached_row(store_dir.string(), keys[i]);
      store.gets.fetch_add(1);
      if (got.has_value()) store.hits.fetch_add(1);
      ctx.checks.expect(got.has_value() && same_results(*got, pass.rows[i].row),
                        spec.rows[i] + ": load_cached_row returns the row put");
    });
  }
  pass.wall_s = wall.seconds();
  pass.setup_s = setup.seconds;
  ctx.setup_samples.push_back(setup.seconds);
  std::filesystem::remove_all(store_dir);

  pass.spans = log.spans();
  pass.counts = observe.merged_metrics();
  pass.puts = store.puts.load();
  pass.gets = store.gets.load();
  pass.hits = store.hits.load();
  for (const TracedRow& row : pass.rows) {
    check_row(ctx.checks, row.row);
    ctx.checks.expect(row.launches_failed == 0,
                      row.row.workload + ": every run_launch_checked returns OK");
  }
  return pass;
}

/// Time of the pass (after set-up) that no top-level span covers.
double unspanned_seconds(const TracedPass& pass) {
  std::vector<std::pair<double, double>> top;
  for (const Span& span : pass.spans) {
    if (span.parent == kNoParent && span.name != "setup") {
      top.emplace_back(span.start_s, span.end_s);
    }
  }
  return pass.wall_s - pass.setup_s - union_length(std::move(top));
}

Values per_layer_values(const Context& ctx, const Pass& untraced, const TracedPass& traced) {
  const std::map<std::string, SpanTotals> totals = totals_by_name(traced.spans);
  const auto busy = [&](const std::string& name) {
    const auto it = totals.find(name);
    return it == totals.end() ? 0.0 : it->second.total_s;
  };
  const auto count = [&](const std::string& name) {
    const auto it = totals.find(name);
    return it == totals.end() ? 0.0 : static_cast<double>(it->second.count);
  };
  const auto counter = [&](const std::string& name) {
    return static_cast<double>(traced.counts.counter(name).value_or(0));
  };

  std::vector<double> full_launch_s;
  std::vector<double> row_s;
  for (const Span& span : traced.spans) {
    if (span.name == "sim.full.launch") full_launch_s.push_back(span.duration());
    if (span.name == "row") row_s.push_back(span.duration());
  }
  std::sort(full_launch_s.begin(), full_launch_s.end());
  const double tail_pct = tail_percentile(full_launch_s.size());

  double warp_insts = 0.0;
  double full_cycles = 0.0;
  double sampled_cycles = 0.0;
  double skipped_blocks = 0.0;
  double representatives = 0.0;
  double regions = 0.0;
  double simpoint_k = 0.0;
  double units = 0.0;
  double skipped_inter = 0.0;
  double skipped_all = 0.0;
  for (const TracedRow& row : traced.rows) {
    warp_insts += static_cast<double>(row.row.total_warp_insts);
    full_cycles += static_cast<double>(row.full_cycles);
    sampled_cycles += static_cast<double>(row.sampled_cycles);
    skipped_blocks += static_cast<double>(row.skipped_blocks);
    representatives += static_cast<double>(row.representatives);
    regions += static_cast<double>(row.regions);
    simpoint_k += static_cast<double>(row.row.simpoint_k);
    units += static_cast<double>(row.units);
    skipped_inter += static_cast<double>(row.skipped_inter_warp_insts);
    skipped_all += static_cast<double>(row.skipped_inter_warp_insts +
                                       row.skipped_intra_warp_insts);
  }
  double untraced_full_s = 0.0;
  double untraced_tbp_s = 0.0;
  for (const harness::ExperimentRow& row : untraced.rows) {
    untraced_full_s += row.full_sim_seconds;
    untraced_tbp_s += row.tbp_seconds;
  }

  double leaf_busy = 0.0;
  for (const char* leaf :
       {"profile.launch", "sim.full.launch", "baselines.random", "baselines.systematic",
        "baselines.simpoint", "core.inter", "core.regions", "sim.sampled.launch",
        "core.predict", "core.combine", "core.attribution", "store.get", "store.put",
        "workloads.build"}) {
    leaf_busy += busy(leaf);
  }
  const double jobs = static_cast<double>(ctx.spec.jobs);
  const bool rows_parallel = ctx.spec.jobs > 1 && ctx.spec.rows.size() > 1;

  return {
      {"profile.busy_s", busy("profile.launch")},
      {"profile.launches", count("profile.launch")},
      {"profile.warp_insts", warp_insts},
      {"sim.full.busy_s", busy("sim.full.launch")},
      {"sim.full.launches", count("sim.full.launch")},
      {"sim.full.cycles", full_cycles},
      {"sim.full.ns_per_cycle", 1e9 * busy("sim.full.launch") / full_cycles},
      {"sim.full.launch_p50_s", percentile(full_launch_s, 50.0)},
      {"sim.full.launch_tail_s", percentile(full_launch_s, tail_pct)},
      {"sim.full.launch_tail_pct", tail_pct},
      {"sim.sampled.busy_s", busy("sim.sampled.launch")},
      {"sim.sampled.cycles", sampled_cycles},
      {"sim.sampled.skipped_blocks", skipped_blocks},
      {"sim.sampled.ns_per_cycle", 1e9 * busy("sim.sampled.launch") / sampled_cycles},
      {"sim.l1.mshr_stalls", counter("sim.l1.mshr_stalls")},
      {"sim.l2.mshr_stalls", counter("sim.l2.mshr_stalls")},
      {"sim.l1.misses", counter("sim.l1.misses")},
      {"sim.dram.row_misses", counter("sim.dram.row_misses")},
      {"sim.dram.scheduling_decisions", counter("sim.dram.scheduling_decisions")},
      {"stall.memory", counter("sim.stall.memory")},
      {"stall.idle", counter("sim.stall.idle")},
      {"core.inter.busy_s", busy("core.inter")},
      {"core.inter.representatives", representatives},
      {"core.regions.busy_s", busy("core.regions")},
      {"core.regions.count", regions},
      {"core.reconstruct.busy_s", busy("core.predict") + busy("core.combine")},
      {"core.inter_skip_share", skipped_all > 0.0 ? skipped_inter / skipped_all : 0.0},
      {"core.speedup_vs_full", untraced_full_s / untraced_tbp_s},
      {"baselines.random.busy_s", busy("baselines.random")},
      {"baselines.systematic.busy_s", busy("baselines.systematic")},
      {"baselines.simpoint.busy_s", busy("baselines.simpoint")},
      {"baselines.simpoint.k", simpoint_k},
      {"baselines.units", units},
      {"store.put.busy_s", busy("store.put")},
      {"store.get.busy_s", busy("store.get")},
      {"store.puts", static_cast<double>(traced.puts)},
      {"store.gets", static_cast<double>(traced.gets)},
      {"store.hits", static_cast<double>(traced.hits)},
      {"parallel.jobs", jobs},
      {"parallel.busy_share", leaf_busy / ((traced.wall_s - traced.setup_s) * jobs)},
      {"parallel.critical_path_s",
       rows_parallel ? *std::max_element(row_s.begin(), row_s.end())
                     : full_launch_s.back()},
      {"trace.overhead_s", traced.wall_s - untraced.wall_s},
      {"trace.unspanned_s", unspanned_seconds(traced)},
  };
}

// ---- Driver -------------------------------------------------------------

std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

[[noreturn]] void usage(const char* message) {
  std::fprintf(stderr,
               "tbp_perfbench: %s\nusage: tbp_perfbench --workload NAME --seed N "
               "--seconds S --trace 0|1\n",
               message);
  std::exit(2);
}


int run(int argc, char** argv) {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = -1.0;
  int trace = -1;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      workload = value;
    } else if (flag == "--seed") {
      seed = std::strtoull(value.c_str(), &end, 10);
      if (*end != '\0' || value.empty()) usage("invalid --seed");
    } else if (flag == "--seconds") {
      seconds = std::strtod(value.c_str(), &end);
      if (*end != '\0' || value.empty() || seconds < 0.0) usage("invalid --seconds");
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") usage("--trace takes 0 or 1");
      trace = value == "1" ? 1 : 0;
    } else {
      usage(("unknown flag " + flag).c_str());
    }
  }
  if (seconds < 0.0 || trace < 0) usage("--seconds and --trace are required");
  const auto& specs = workload_specs();
  const auto spec = std::find_if(specs.begin(), specs.end(),
                                 [&](const WorkloadSpec& s) { return s.name == workload; });
  if (spec == specs.end()) usage(("unknown workload '" + workload + "'").c_str());

  // The seed picks the baselines' sampling seeds (Random, Ideal-SimPoint,
  // systematic); the workload models keep the repository's default model
  // seed so the simulated work, and TBPoint's error, are the same for every
  // benchmark seed (see README.md, "Seeds").
  Context ctx{.spec = *spec, .out_dir = ".bench_out"};
  ctx.scale.divisor = spec->divisor;
  ctx.options.jobs = spec->jobs;
  ctx.options.random.seed = splitmix64(seed ^ 0x5eed);
  ctx.options.simpoint.seed = splitmix64(seed ^ 0x51a9);
  ctx.options.systematic.seed = splitmix64(seed ^ 0x575);
  par::set_global_jobs(spec->jobs);
  std::filesystem::create_directories(ctx.out_dir);

  const auto time_set_ups = [&] {
    for (int i = 0; i < kSetupRepeats; ++i) {
      ctx.setup_samples.push_back(set_up(*spec, ctx.scale, ctx.fresh_store_dir()).seconds);
    }
  };
  // A traced round is two passes.
  const std::size_t n_rounds = static_cast<std::size_t>(
      std::max(1L, std::lround(seconds / (spec->pass_s * (trace == 1 ? 2.0 : 1.0)))));

  std::vector<Values> rounds;
  std::vector<std::uint64_t> digests;
  Pass first;
  TracedPass last_traced;
  time_set_ups();
  while (rounds.size() < n_rounds) {
    const timing::WallTimer round_timer;
    Pass pass = untraced_pass(ctx);
    digests.push_back(results_digest(pass.rows));
    if (trace == 0) {
      rounds.push_back(end_to_end_values(pass));
    } else {
      last_traced = traced_pass(ctx);
      std::vector<harness::ExperimentRow> traced_rows;
      for (std::size_t i = 0; i < pass.rows.size(); ++i) {
        const harness::ExperimentRow& traced_row = last_traced.rows[i].row;
        ctx.checks.expect(
            same_bits(traced_row.tbpoint.ipc, pass.rows[i].tbpoint.ipc) &&
                same_bits(traced_row.tbpoint.sample_pct, pass.rows[i].tbpoint.sample_pct),
            traced_row.workload + ": traced TBPoint IPC and sample % equal run_comparison's");
        ctx.checks.expect(same_results(traced_row, pass.rows[i]),
                          traced_row.workload + ": traced row equals run_comparison's");
        traced_rows.push_back(traced_row);
      }
      digests.push_back(results_digest(traced_rows));
      rounds.push_back(per_layer_values(ctx, pass, last_traced));
    }
    if (first.rows.empty()) first = std::move(pass);
    std::fprintf(stderr, "[perfbench] round %zu/%zu: %.3f s\n", rounds.size(), n_rounds,
                 round_timer.seconds());
    time_set_ups();
  }
  for (const std::uint64_t digest : digests) {
    ctx.checks.expect(digest == digests.front(), "results identical in every pass");
  }

  Values values = median_values(rounds);
  const double setup_s = median(ctx.setup_samples);
  for (const harness::ExperimentRow& row : first.rows) {
    std::printf("row %s", row_record(row).c_str());
  }
  std::printf("digest.results %s\n", hex64(digests.front()).c_str());
  if (trace == 0) {
    values["setup_s"] = setup_s;
    values["peak_rss_mb"] = peak_rss_mb();
  } else {
    std::printf("digest.counts %s\n",
                hex64(fnv1a(obs::metrics_to_json(last_traced.counts))).c_str());
    const std::string spans_path =
        (ctx.out_dir / ("spans-" + spec->name + "-" + std::to_string(seed) + ".json"))
            .string();
    ctx.checks.expect(write_spans_json(last_traced.spans, spans_path),
                      "span file written to " + spans_path);
    std::printf("spans %s\n", spans_path.c_str());
  }
  std::printf("rounds %zu, set-up %.6f s (median of %zu)\n", rounds.size(), setup_s,
              ctx.setup_samples.size());
  const double attempted = static_cast<double>(ctx.checks.attempted());
  values["ops_failed_pct"] = 100.0 * static_cast<double>(ctx.checks.failed()) / attempted;

  std::printf("{\"correct\":%s,\"attempted\":%zu,\"failed\":%zu,\"values\":{",
              ctx.checks.failed() == 0 ? "true" : "false", ctx.checks.attempted(),
              ctx.checks.failed());
  const char* sep = "";
  for (const auto& [name, value] : values) {
    std::printf("%s\"%s\":%.17g", sep, name.c_str(), std::isfinite(value) ? value : 0.0);
    sep = ",";
  }
  std::printf("}}\n");
  return 0;
}

}  // namespace
}  // namespace tbp::perfbench

int main(int argc, char** argv) { return tbp::perfbench::run(argc, argv); }
