// Figure 8: regular vs irregular kernel classification by thread-block-size
// ratio (block thread instructions normalized by the launch average),
// plotted against block id.  The bench prints a compact ASCII rendition of
// the scatter for one regular (cfd) and one irregular (bfs) kernel plus the
// size-ratio distribution of every benchmark.
//
// Flags: --scale N --seed S --benchmarks a,b
#include <algorithm>
#include <cstdio>

#include "harness/cli.hpp"
#include "harness/table.hpp"
#include "profile/profiler.hpp"
#include "stats/descriptive.hpp"
#include "workloads/workload.hpp"

namespace {

/// Whole-kernel scatter as in the paper's Fig. 8: every thread block of
/// every launch in dispatch order, size normalized by the global average.
/// '*' is a block; '^' on the bottom axis marks a kernel-launch start (the
/// paper's red dots).
void ascii_scatter(const char* title, const tbp::workloads::Workload& workload) {
  constexpr int kCols = 72;
  constexpr int kRows = 10;

  std::vector<double> sizes;
  std::vector<std::size_t> launch_starts;
  for (const auto& launch : workload.launches) {
    launch_starts.push_back(sizes.size());
    const tbp::profile::LaunchProfile p = tbp::profile::profile_launch(*launch);
    for (const auto& block : p.blocks) {
      sizes.push_back(static_cast<double>(block.thread_insts));
    }
  }
  const double avg = tbp::stats::mean(sizes);

  char grid[kRows][kCols + 1];
  for (auto& row : grid) {
    std::fill(row, row + kCols, ' ');
    row[kCols] = '\0';
  }
  char axis[kCols + 1];
  std::fill(axis, axis + kCols, '-');
  axis[kCols] = '\0';

  const auto col_of = [&](std::size_t b) {
    return std::min<int>(
        static_cast<int>(static_cast<double>(b) /
                         static_cast<double>(sizes.size()) * kCols),
        kCols - 1);
  };
  for (std::size_t b = 0; b < sizes.size(); ++b) {
    const double ratio = sizes[b] / avg;
    const int row =
        kRows - 1 - std::clamp(static_cast<int>(ratio / 2.0 * kRows), 0, kRows - 1);
    grid[row][col_of(b)] = '*';
  }
  for (std::size_t start : launch_starts) axis[col_of(start)] = '^';

  std::printf("%s (y: block size ratio 0..2, x: block id; ^ = launch start)\n",
              title);
  for (const auto& row : grid) std::printf("  |%s|\n", row);
  std::printf("  +%s+\n", axis);
}

}  // namespace

int main(int argc, char** argv) {
  using namespace tbp;
  harness::Args args(argc, argv, argv[0],
                     "[--scale N] [--seed S] [--benchmarks a,b,...]");
  const workloads::WorkloadScale scale = harness::read_scale(args);
  const std::vector<std::string> names =
      harness::read_benchmarks(args, workloads::workload_names());
  args.finish();

  std::printf("Figure 8: thread-block size patterns (scale divisor %u)\n\n",
              scale.divisor);

  const workloads::Workload regular = workloads::make_workload("hotspot", scale);
  const workloads::Workload irregular = workloads::make_workload("mst", scale);
  ascii_scatter("(a) regular kernel: hotspot", regular);
  std::printf("\n");
  ascii_scatter("(b) irregular kernel: mst", irregular);

  std::printf("\nBlock-size-ratio spread per benchmark (launch 0):\n");
  harness::TablePrinter table({"benchmark", "type", "CoV", "min_ratio", "max_ratio"});
  for (const std::string& name : names) {
    const workloads::Workload w = workloads::make_workload(name, scale);
    const profile::LaunchProfile p = profile::profile_launch(*w.launches[0]);
    const double avg = static_cast<double>(p.total_thread_insts()) /
                       static_cast<double>(p.blocks.size());
    double lo = 1e300;
    double hi = 0.0;
    for (const auto& block : p.blocks) {
      const double ratio = static_cast<double>(block.thread_insts) / avg;
      lo = std::min(lo, ratio);
      hi = std::max(hi, ratio);
    }
    table.add_row({name, w.irregular() ? "I" : "II",
                   harness::fmt(p.block_size_cov(), 3), harness::fmt(lo, 2),
                   harness::fmt(hi, 2)});
  }
  table.print();
  return 0;
}
