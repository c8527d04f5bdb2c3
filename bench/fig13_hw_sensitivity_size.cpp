// Figure 13: TBPoint total sample size across hardware configurations.
// The paper observes that low system occupancy shrinks regular kernels'
// sample sizes (smaller epochs) but can inflate irregular, cache-sensitive
// kernels' sizes through longer warming periods.
//
// Flags: the common flags (harness/cli.hpp).
#include "../bench/bench_common.hpp"

int main(int argc, char** argv) {
  using namespace tbp;
  const harness::CommonFlags flags = bench::read_bench_flags(argc, argv);

  std::printf(
      "Figure 13: TBPoint total sample size vs hardware configuration "
      "(scale divisor %u)\n",
      flags.scale.divisor);
  std::vector<std::string> headers = {"benchmark"};
  for (const bench::HwConfig& hw : bench::hw_sweep()) {
    headers.push_back(hw.label() + " smp%");
  }
  harness::TablePrinter table(std::move(headers));

  std::vector<std::vector<harness::ExperimentRow>> by_config;
  for (const bench::HwConfig& hw : bench::hw_sweep()) {
    std::fprintf(stderr, "[bench] config %s\n", hw.label().c_str());
    by_config.push_back(
        bench::collect_rows(flags, sim::scaled_config(hw.warps, hw.sms)));
  }

  for (std::size_t b = 0; b < flags.benchmark_list().size(); ++b) {
    std::vector<std::string> cells = {flags.benchmark_list()[b]};
    for (const auto& rows : by_config) {
      cells.push_back(harness::fmt(rows[b].tbpoint.sample_pct, 2));
    }
    table.add_row(std::move(cells));
  }
  table.print();
  return 0;
}
