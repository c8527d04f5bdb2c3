// Ablation of TBPoint's tunables, one axis at a time around the paper's
// defaults (inter sigma 0.1, intra sigma 0.2, variation factor 0.3):
//   * inter-launch distance threshold — cluster count vs accuracy
//   * intra-launch distance threshold — region granularity
//   * variation-factor threshold — outlier sensitivity (mst's lever)
//   * minimum region length and entry fraction — sampler engineering knobs
// Each setting reports sampling error and sample size against a full
// simulation computed once per benchmark.
//
// Flags: --scale N --seed S --benchmarks a,b (default bfs,spmv,hotspot,mst)
// --jobs N
#include <cstdint>
#include <cstdio>
#include <functional>
#include <string>
#include <vector>

#include "core/tbpoint.hpp"
#include "harness/cli.hpp"
#include "harness/table.hpp"
#include "profile/profiler.hpp"
#include "sim/gpu.hpp"
#include "stats/error.hpp"
#include "support/parallel.hpp"
#include "workloads/workload.hpp"

namespace {

struct PreparedWorkload {
  tbp::workloads::Workload workload;
  tbp::profile::ApplicationProfile profile;
  double full_ipc = 0.0;
};

PreparedWorkload prepare(const std::string& name,
                         const tbp::workloads::WorkloadScale& scale,
                         const tbp::sim::GpuConfig& config, std::size_t jobs) {
  PreparedWorkload out{.workload = tbp::workloads::make_workload(name, scale),
                       .profile = {},
                       .full_ipc = 0.0};
  const auto sources = out.workload.sources();
  out.profile = tbp::profile::profile_application(sources, jobs);
  std::uint64_t cycles = 0;
  std::uint64_t insts = 0;
  for (const tbp::sim::LaunchResult& result :
       tbp::sim::simulate_launches(sources, config, jobs)) {
    cycles += result.cycles;
    insts += result.sim_warp_insts;
  }
  out.full_ipc = static_cast<double>(insts) / static_cast<double>(cycles);
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace tbp;
  harness::Args args(argc, argv, argv[0],
                     "[--scale N] [--seed S] [--benchmarks a,b,...] [--jobs N]");
  const workloads::WorkloadScale scale = harness::read_scale(args);
  const std::vector<std::string> benchmarks =
      harness::read_benchmarks(args, {"bfs", "spmv", "hotspot", "mst"});
  const std::size_t jobs = harness::read_jobs(args);
  args.finish();
  const sim::GpuConfig config = sim::fermi_config();
  par::set_global_jobs(jobs);

  std::vector<PreparedWorkload> prepared(benchmarks.size());
  par::parallel_for(benchmarks.size(), jobs, [&](std::size_t i) {
    std::fprintf(stderr, "[bench] preparing %s (full simulation)...\n",
                 benchmarks[i].c_str());
    prepared[i] = prepare(benchmarks[i], scale, config, jobs);
  });

  struct Axis {
    const char* name;
    std::vector<std::pair<std::string, core::TBPointOptions>> settings;
  };
  std::vector<Axis> axes;
  const auto with = [](const std::function<void(core::TBPointOptions&)>& edit) {
    core::TBPointOptions options;
    edit(options);
    return options;
  };
  axes.push_back(
      {"inter-launch distance threshold (default 0.1)",
       {{"0.02", with([](auto& o) { o.inter.distance_threshold = 0.02; })},
        {"0.10", with([](auto& o) { o.inter.distance_threshold = 0.10; })},
        {"0.40", with([](auto& o) { o.inter.distance_threshold = 0.40; })}}});
  axes.push_back(
      {"intra-launch distance threshold (default 0.2)",
       {{"0.05", with([](auto& o) { o.intra.distance_threshold = 0.05; })},
        {"0.20", with([](auto& o) { o.intra.distance_threshold = 0.20; })},
        {"0.60", with([](auto& o) { o.intra.distance_threshold = 0.60; })}}});
  axes.push_back(
      {"variation factor threshold (default 0.3)",
       {{"0.10", with([](auto& o) { o.intra.variation_factor_threshold = 0.10; })},
        {"0.30", with([](auto& o) { o.intra.variation_factor_threshold = 0.30; })},
        {"1.00", with([](auto& o) { o.intra.variation_factor_threshold = 1.00; })}}});
  axes.push_back(
      {"min region epochs (default 3)",
       {{"2", with([](auto& o) { o.intra.min_region_epochs = 2; })},
        {"3", with([](auto& o) { o.intra.min_region_epochs = 3; })},
        {"8", with([](auto& o) { o.intra.min_region_epochs = 8; })}}});
  axes.push_back(
      {"entry fraction (default 0.9; 1.0 = paper-strict)",
       {{"0.80", with([](auto& o) { o.sampler.entry_fraction = 0.80; })},
        {"0.90", with([](auto& o) { o.sampler.entry_fraction = 0.90; })},
        {"1.00", with([](auto& o) { o.sampler.entry_fraction = 1.00; })}}});
  axes.push_back(
      {"BBV inter-launch feature extension (paper footnote 2; default off)",
       {{"off", with([](auto& o) { o.inter.include_bbv = false; })},
        {"on", with([](auto& o) { o.inter.include_bbv = true; })}}});
  axes.push_back(
      {"min warm units (default 3; 2 = paper minimum)",
       {{"2", with([](auto& o) { o.sampler.min_warm_units = 2; })},
        {"3", with([](auto& o) { o.sampler.min_warm_units = 3; })},
        {"6", with([](auto& o) { o.sampler.min_warm_units = 6; })}}});

  for (const Axis& axis : axes) {
    std::printf("\nAblation: %s\n", axis.name);
    std::vector<std::string> headers = {"setting"};
    for (const PreparedWorkload& p : prepared) {
      headers.push_back(p.workload.name + " err%");
      headers.push_back(p.workload.name + " smp%");
    }
    harness::TablePrinter table(std::move(headers));
    for (const auto& [label, options] : axis.settings) {
      std::vector<std::string> cells = {label};
      for (const PreparedWorkload& p : prepared) {
        core::TBPointOptions run_options = options;
        run_options.jobs = jobs;
        const core::TBPointRun run =
            core::run_tbpoint(p.workload.sources(), p.profile, config, run_options);
        cells.push_back(harness::fmt(
            stats::relative_error_pct(run.app.predicted_ipc, p.full_ipc), 2));
        cells.push_back(harness::fmt(100.0 * run.app.sample_fraction(), 1));
      }
      table.add_row(std::move(cells));
    }
    table.print();
  }
  return 0;
}
