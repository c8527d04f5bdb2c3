// Bringing your own kernel: implement trace::LaunchTraceSource (or, as
// here, parameterize trace::SyntheticLaunch) for a workload the built-in
// suite doesn't cover, then run the full TBPoint pipeline on it.
//
// The example models a two-phase "histogram + apply" kernel: the first 60%
// of blocks do scattered atomic-ish updates (memory-divergent, random) and
// the remaining 40% stream over the histogram applying a correction — a
// clean two-region launch that intra-launch sampling carves up.
//
// Usage: custom_kernel [n_blocks] [n_launches]
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <vector>

#include "core/tbpoint.hpp"
#include "profile/profiler.hpp"
#include "sim/config.hpp"
#include "sim/gpu.hpp"
#include "stats/error.hpp"
#include "trace/generator.hpp"

int main(int argc, char** argv) {
  const std::uint32_t n_blocks =
      argc > 1 ? static_cast<std::uint32_t>(std::atoi(argv[1])) : 2000;
  const std::size_t n_launches =
      argc > 2 ? static_cast<std::size_t>(std::atoi(argv[2])) : 4;

  // Phase boundary at 60% of the grid.
  const std::uint32_t boundary = n_blocks * 6 / 10;
  const auto behavior = [boundary](std::uint32_t block_id) {
    tbp::trace::BlockBehavior b;
    if (block_id < boundary) {
      // Histogram phase: scattered updates, poor coalescing.
      b.loop_iterations = 10;
      b.alu_per_iteration = 3;
      b.mem_per_iteration = 2;
      b.stores_per_iteration = 2;
      b.lines_per_access = 4;
      b.pattern = tbp::trace::AddressPattern::kRandom;
      b.region_base_line = 1u << 21;
      b.working_set_lines = 1u << 13;
    } else {
      // Apply phase: streaming, compute-leaning.
      b.loop_iterations = 8;
      b.alu_per_iteration = 7;
      b.mem_per_iteration = 1;
      b.stores_per_iteration = 1;
      b.lines_per_access = 1;
      b.pattern = tbp::trace::AddressPattern::kStreaming;
    }
    return b;
  };

  std::vector<std::unique_ptr<tbp::trace::SyntheticLaunch>> launches;
  for (std::size_t l = 0; l < n_launches; ++l) {
    launches.push_back(std::make_unique<tbp::trace::SyntheticLaunch>(
        tbp::trace::make_synthetic_kernel_info("histogram_apply"), n_blocks,
        /*seed=*/0xc0ffee, behavior));
  }
  std::vector<const tbp::trace::LaunchTraceSource*> sources;
  for (const auto& l : launches) sources.push_back(l.get());
  const tbp::profile::ApplicationProfile profile =
      tbp::profile::profile_application(sources, /*jobs=*/1);

  const tbp::sim::GpuConfig config = tbp::sim::fermi_config();
  const tbp::core::TBPointRun run =
      tbp::core::run_tbpoint(sources, profile, config, {});

  std::printf("custom kernel: %u blocks x %zu launches\n", n_blocks, n_launches);
  std::printf("inter-launch clusters: %zu (identical launches collapse)\n",
              run.inter.clusters.size());
  for (const tbp::core::RepresentativeRun& rep : run.reps) {
    std::printf("representative launch %zu: %zu homogeneous regions\n",
                rep.launch_index, rep.regions.table.regions().size());
    for (const auto& region : rep.regions.table.regions()) {
      std::printf("  region %d: blocks [%u, %u]\n", region.region_id,
                  region.start_block, region.end_block);
    }
  }

  // Validate against the full simulation.
  std::uint64_t cycles = 0;
  std::uint64_t insts = 0;
  for (const tbp::sim::LaunchResult& full :
       tbp::sim::simulate_launches(sources, config, /*jobs=*/1)) {
    cycles += full.cycles;
    insts += full.sim_warp_insts;
  }
  const double full_ipc = static_cast<double>(insts) / static_cast<double>(cycles);
  std::printf("TBPoint IPC %.3f vs full %.3f (error %.2f%%), sample size %.1f%%\n",
              run.app.predicted_ipc, full_ipc,
              tbp::stats::relative_error_pct(run.app.predicted_ipc, full_ipc),
              100.0 * run.app.sample_fraction());
  return 0;
}
