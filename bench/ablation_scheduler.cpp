// Hardware-independence ablation across warp-scheduler policies.
//
// The paper's headline requirement is that TBPoint's profile is collected
// once and retargeted to any simulated configuration.  Figs. 12/13 sweep
// machine *sizes*; this bench sweeps the warp scheduler (loose round-robin
// vs greedy-then-oldest), which changes interleaving — the very effect the
// Markov model argues homogeneous regions are insensitive to.  The same
// functional profile drives both columns; only clustering + sampled
// simulation rerun.
//
// Flags: --scale N --seed S --benchmarks a,b (default bfs,spmv,hotspot,cfd)
// --jobs N
#include <cstdint>
#include <cstdio>
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

int main(int argc, char** argv) {
  using namespace tbp;
  harness::Args args(argc, argv, argv[0],
                     "[--scale N] [--seed S] [--benchmarks a,b,...] [--jobs N]");
  const workloads::WorkloadScale scale = harness::read_scale(args);
  const std::vector<std::string> benchmarks =
      harness::read_benchmarks(args, {"bfs", "spmv", "hotspot", "cfd"});
  const std::size_t jobs = harness::read_jobs(args);
  args.finish();

  std::printf(
      "Ablation: TBPoint accuracy across warp schedulers, one profile "
      "(scale divisor %u)\n",
      scale.divisor);
  harness::TablePrinter table({"benchmark", "RR full IPC", "RR err%", "RR smp%",
                               "GTO full IPC", "GTO err%", "GTO smp%"});

  par::set_global_jobs(jobs);
  for (const std::string& name : benchmarks) {
    std::fprintf(stderr, "[bench] %s ...\n", name.c_str());
    const workloads::Workload workload = workloads::make_workload(name, scale);
    const auto sources = workload.sources();

    // One-time profiling, shared by both scheduler columns.
    const profile::ApplicationProfile profile =
        profile::profile_application(sources, jobs);

    std::vector<std::string> cells = {name};
    for (const sim::WarpScheduler scheduler :
         {sim::WarpScheduler::kRoundRobin, sim::WarpScheduler::kGreedyThenOldest}) {
      sim::GpuConfig config = sim::fermi_config();
      config.scheduler = scheduler;

      core::TBPointOptions options;
      options.jobs = jobs;
      const core::TBPointRun run = core::run_tbpoint(sources, profile, config, options);

      // Ground truth: the full simulation, reduced in launch order.
      std::uint64_t cycles = 0;
      std::uint64_t insts = 0;
      for (const sim::LaunchResult& full :
           sim::simulate_launches(sources, config, jobs)) {
        cycles += full.cycles;
        insts += full.sim_warp_insts;
      }
      const double full_ipc =
          static_cast<double>(insts) / static_cast<double>(cycles);
      cells.push_back(harness::fmt(full_ipc, 3));
      cells.push_back(harness::fmt(
          stats::relative_error_pct(run.app.predicted_ipc, full_ipc), 2));
      cells.push_back(harness::fmt(100.0 * run.app.sample_fraction(), 1));
    }
    table.add_row(std::move(cells));
  }
  table.print();
  std::printf(
      "\nthe profile is collected once; per-scheduler work is re-clustering "
      "plus the sampled simulations — the paper's one-time-profiling claim\n");
  return 0;
}
