// Figure 12: TBPoint sampling error across hardware configurations with
// different system occupancies (W warps per SM, S SMs).  The paper reports
// a maximum error below 14%, with cache-sensitive kernels (bfs, sssp)
// showing the highest variation because fast-forwarding leaves cache state
// incomplete.  Each configuration is its own collect_rows pass, and
// collect_rows -> cached_comparison -> run_comparison profiles every
// benchmark again before identifying regions and running the sampled and
// full simulations.  The profile is hardware-independent, so every pass
// computes the same one; ablation_scheduler and examples/hw_explorer show
// one in-memory profile reused across configurations.
//
// Flags: the common flags (harness/cli.hpp).
#include "../bench/bench_common.hpp"

int main(int argc, char** argv) {
  using namespace tbp;
  const harness::CommonFlags flags = bench::read_bench_flags(argc, argv);

  std::printf(
      "Figure 12: TBPoint sampling error vs hardware configuration "
      "(scale divisor %u)\n",
      flags.scale.divisor);
  std::vector<std::string> headers = {"benchmark"};
  for (const bench::HwConfig& hw : bench::hw_sweep()) {
    headers.push_back(hw.label() + " err%");
  }
  harness::TablePrinter table(std::move(headers));

  // Collect per configuration (cached), then pivot to rows per benchmark.
  std::vector<std::vector<harness::ExperimentRow>> by_config;
  for (const bench::HwConfig& hw : bench::hw_sweep()) {
    std::fprintf(stderr, "[bench] config %s\n", hw.label().c_str());
    by_config.push_back(
        bench::collect_rows(flags, sim::scaled_config(hw.warps, hw.sms)));
  }

  double max_err = 0.0;
  for (std::size_t b = 0; b < flags.benchmark_list().size(); ++b) {
    std::vector<std::string> cells = {flags.benchmark_list()[b]};
    for (const auto& rows : by_config) {
      cells.push_back(harness::fmt(rows[b].tbpoint.err_pct, 2));
      max_err = std::max(max_err, rows[b].tbpoint.err_pct);
    }
    table.add_row(std::move(cells));
  }
  table.print();
  std::printf("\nmax error across configurations: %.2f%% (paper: below 14%%)\n",
              max_err);
  return 0;
}
