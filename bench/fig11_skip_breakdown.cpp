// Figure 11: breakdown of TBPoint's skipped instructions between
// inter-launch and intra-launch sampling.  Paper observations: regular
// kernels skip almost everything through inter-launch sampling (their
// launches are homogeneous), except the single-launch hotspot; stream's
// hundreds of homogeneous launches make it inter-dominated; mst is
// intra-dominated because its launches all differ in size.
//
// Flags: the common flags (harness/cli.hpp) and --csv PATH.
#include "../bench/bench_common.hpp"

int main(int argc, char** argv) {
  using namespace tbp;
  std::string csv_path;
  const harness::CommonFlags flags = bench::read_bench_flags(argc, argv, &csv_path);
  const std::vector<harness::ExperimentRow> rows =
      bench::collect_rows(flags, sim::fermi_config());
  bench::maybe_write_csv(csv_path, rows);

  std::printf(
      "Figure 11: Relative share of skipped instructions by sampling level "
      "(scale divisor %u)\n",
      flags.scale.divisor);
  harness::TablePrinter table(
      {"benchmark", "type", "inter%", "intra%", "total_skipped%"});
  for (const harness::ExperimentRow& row : rows) {
    const double total_skipped_pct = 100.0 - row.tbpoint.sample_pct;
    table.add_row({row.workload, row.irregular ? "I" : "II",
                   harness::fmt(100.0 * row.inter_skip_share, 1),
                   harness::fmt(100.0 * (1.0 - row.inter_skip_share), 1),
                   harness::fmt(total_skipped_pct, 1)});
  }
  table.print();
  std::printf(
      "\npaper: regular kernels are inter-dominated (hotspot has one launch "
      "-> 100%% intra); mst is intra-dominated; stream is inter-dominated\n");
  return 0;
}
