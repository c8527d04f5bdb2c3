// Hardware design-space exploration with one-time profiling — the workflow
// the paper's Section V-C motivates.  The workload is profiled exactly
// once; for every candidate GPU configuration only the (cheap) epoch
// re-clustering and the sampled simulations rerun.  The tool prints, per
// configuration, the predicted IPC, the sample size, and the wall-clock
// cost of TBPoint vs the full simulation it replaces.
//
// Usage: hw_explorer [workload] [scale-divisor]
#include <chrono>
#include <cstdio>
#include <cstdlib>

#include "core/tbpoint.hpp"
#include "harness/table.hpp"
#include "profile/profiler.hpp"
#include "sim/config.hpp"
#include "sim/gpu.hpp"
#include "stats/error.hpp"
#include "workloads/workload.hpp"

int main(int argc, char** argv) {
  using Clock = std::chrono::steady_clock;
  const std::string name = argc > 1 ? argv[1] : "hotspot";
  tbp::workloads::WorkloadScale scale;
  scale.divisor = argc > 2 ? static_cast<std::uint32_t>(std::atoi(argv[2])) : 4;

  const tbp::workloads::Workload workload = tbp::workloads::make_workload(name, scale);
  const auto sources = workload.sources();

  // One-time profiling: this is the only pass over every thread block.
  const auto profile_start = Clock::now();
  const tbp::profile::ApplicationProfile profile =
      tbp::profile::profile_application(sources, /*jobs=*/1);
  const double profile_seconds =
      std::chrono::duration<double>(Clock::now() - profile_start).count();
  std::printf("%s: profiled once in %.3fs (%llu warp insts)\n\n", name.c_str(),
              profile_seconds,
              static_cast<unsigned long long>(profile.total_warp_insts()));

  struct Candidate {
    const char* label;
    std::uint32_t warps;
    std::uint32_t sms;
  };
  const Candidate candidates[] = {
      {"half-occupancy small GPU", 16, 7},
      {"low-occupancy Fermi", 32, 14},
      {"Table V baseline", 48, 14},
      {"doubled SM count", 48, 28},
  };

  tbp::harness::TablePrinter table({"configuration", "W", "S", "TBPoint IPC",
                                    "full IPC", "err%", "sample%", "tbp(s)",
                                    "full(s)"});
  for (const Candidate& c : candidates) {
    const tbp::sim::GpuConfig config = tbp::sim::scaled_config(c.warps, c.sms);

    auto t0 = Clock::now();
    const tbp::core::TBPointRun run =
        tbp::core::run_tbpoint(sources, profile, config, {});
    const double tbp_seconds =
        std::chrono::duration<double>(Clock::now() - t0).count();

    t0 = Clock::now();
    std::uint64_t cycles = 0;
    std::uint64_t insts = 0;
    for (const tbp::sim::LaunchResult& full :
         tbp::sim::simulate_launches(sources, config, /*jobs=*/1)) {
      cycles += full.cycles;
      insts += full.sim_warp_insts;
    }
    const double full_seconds =
        std::chrono::duration<double>(Clock::now() - t0).count();
    const double full_ipc =
        static_cast<double>(insts) / static_cast<double>(cycles);

    table.add_row({c.label, std::to_string(c.warps), std::to_string(c.sms),
                   tbp::harness::fmt(run.app.predicted_ipc, 3),
                   tbp::harness::fmt(full_ipc, 3),
                   tbp::harness::fmt(tbp::stats::relative_error_pct(
                                         run.app.predicted_ipc, full_ipc),
                                     2),
                   tbp::harness::fmt(100.0 * run.app.sample_fraction(), 1),
                   tbp::harness::fmt(tbp_seconds, 3),
                   tbp::harness::fmt(full_seconds, 3)});
  }
  table.print();
  std::printf(
      "\nthe full-simulation column is shown for validation only; a real "
      "design sweep runs just the TBPoint column after one profiling pass\n");
  return 0;
}
