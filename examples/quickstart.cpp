// Quickstart: the whole TBPoint pipeline on one benchmark in ~40 lines of
// API use.
//
//   1. Build a workload (a multi-launch GPGPU kernel model).
//   2. Profile it functionally (the one-time, hardware-independent step).
//   3. Run TBPoint: inter-launch clustering, homogeneous-region
//      identification, sampled simulation, IPC reconstruction.
//   4. Compare against the full simulation.
//
// Usage: quickstart [workload] [scale-divisor]     (default: spmv 4)
#include <cstdio>
#include <cstdlib>
#include <chrono>

#include "core/tbpoint.hpp"
#include "profile/profiler.hpp"
#include "sim/config.hpp"
#include "sim/gpu.hpp"
#include "stats/error.hpp"
#include "workloads/workload.hpp"

int main(int argc, char** argv) {
  using Clock = std::chrono::steady_clock;
  const std::string name = argc > 1 ? argv[1] : "spmv";
  tbp::workloads::WorkloadScale scale;
  scale.divisor = argc > 2 ? static_cast<std::uint32_t>(std::atoi(argv[2])) : 4;

  // 1. The workload: launch count, block counts and per-block behaviour
  //    modeled after the paper's Table VI benchmark of the same name.
  const tbp::workloads::Workload workload = tbp::workloads::make_workload(name, scale);
  const auto sources = workload.sources();
  std::printf("workload %s: %zu launches, %llu thread blocks\n", name.c_str(),
              workload.launches.size(),
              static_cast<unsigned long long>(workload.total_blocks()));

  // 2. One-time functional profiling (GPUOcelot stage): per-block thread
  //    insts, warp insts, memory requests.  No timing model involved.
  const tbp::profile::ApplicationProfile profile =
      tbp::profile::profile_application(sources, /*jobs=*/1);
  std::printf("profiled %llu warp instructions\n",
              static_cast<unsigned long long>(profile.total_warp_insts()));

  // 3. TBPoint on the paper's Fermi configuration (Table V).
  const tbp::sim::GpuConfig config = tbp::sim::fermi_config();
  auto t0 = Clock::now();
  const tbp::core::TBPointRun run =
      tbp::core::run_tbpoint(sources, profile, config, {});
  const double tbp_seconds = std::chrono::duration<double>(Clock::now() - t0).count();
  std::printf("TBPoint: %zu launch clusters, predicted IPC %.3f, "
              "sample size %.2f%% (%.2fs)\n",
              run.inter.clusters.size(), run.app.predicted_ipc,
              100.0 * run.app.sample_fraction(), tbp_seconds);

  // 4. Ground truth: the full simulation TBPoint is meant to replace.
  t0 = Clock::now();
  std::uint64_t cycles = 0;
  std::uint64_t insts = 0;
  for (const tbp::sim::LaunchResult& full :
       tbp::sim::simulate_launches(sources, config, /*jobs=*/1)) {
    cycles += full.cycles;
    insts += full.sim_warp_insts;
  }
  const double full_seconds = std::chrono::duration<double>(Clock::now() - t0).count();
  const double full_ipc = static_cast<double>(insts) / static_cast<double>(cycles);
  std::printf("Full:    IPC %.3f over %llu cycles (%.2fs)\n", full_ipc,
              static_cast<unsigned long long>(cycles), full_seconds);
  std::printf("sampling error %.3f%%, simulation speedup %.1fx\n",
              tbp::stats::relative_error_pct(run.app.predicted_ipc, full_ipc),
              full_seconds / (tbp_seconds > 0 ? tbp_seconds : 1e-9));
  return 0;
}
