// Table VI: the evaluated benchmarks — suite, type, kernel-launch count and
// thread-block count — regenerated from the workload models (at full scale
// and at the requested scale divisor).
//
// Flags: --scale N --seed S --benchmarks a,b
#include <cstdio>

#include "harness/cli.hpp"
#include "harness/table.hpp"
#include "profile/profiler.hpp"
#include "workloads/workload.hpp"

int main(int argc, char** argv) {
  using namespace tbp;
  harness::Args args(argc, argv, argv[0],
                     "[--scale N] [--seed S] [--benchmarks a,b,...]");
  const workloads::WorkloadScale scale = harness::read_scale(args);
  const std::vector<std::string> names =
      harness::read_benchmarks(args, workloads::workload_names());
  args.finish();

  std::printf("Table VI: evaluated benchmarks (scale divisor %u)\n",
              scale.divisor);
  harness::TablePrinter table({"benchmark", "suite", "type", "launches",
                               "blocks", "blocks@full", "warp insts"});
  const workloads::WorkloadScale full{.divisor = 1, .seed = scale.seed};
  std::uint64_t total_blocks = 0;
  for (const std::string& name : names) {
    const workloads::Workload w = workloads::make_workload(name, scale);
    const workloads::Workload w_full = workloads::make_workload(name, full);
    std::uint64_t warp_insts = 0;
    for (const auto& launch : w.launches) {
      warp_insts += profile::profile_launch(*launch).total_warp_insts();
    }
    total_blocks += w.total_blocks();
    table.add_row({w.name, w.suite, w.irregular() ? "I" : "II",
                   std::to_string(w.launches.size()),
                   std::to_string(w.total_blocks()),
                   std::to_string(w_full.total_blocks()),
                   std::to_string(warp_insts)});
  }
  table.print();
  std::printf("\ntotal thread blocks at this scale: %llu\n",
              static_cast<unsigned long long>(total_blocks));
  std::printf(
      "paper block counts: bfs 10619, sssp 12691, mst 2331, mri 18158, spmv "
      "38250, lbm 108000, cfd 50600, kmeans 58080, hotspot 1849, stream 2688, "
      "black 41760, conv 202752\n");
  return 0;
}
