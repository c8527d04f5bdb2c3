// Figure 10: total sample size (simulated / total warp instructions) of
// Random, Ideal-SimPoint and TBPoint.  Paper geomeans: 10%, 5.4%, 2.6%;
// mst is TBPoint's worst case (55%) because its outlier epochs must be
// simulated.
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

  std::printf("Figure 10: Total sample size (scale divisor %u)\n",
              flags.scale.divisor);
  harness::TablePrinter table(
      {"benchmark", "type", "Random%", "IdealSP%", "TBPoint%", "SP_k",
       "TBP_clusters"});
  std::vector<double> s_random;
  std::vector<double> s_simpoint;
  std::vector<double> s_tbpoint;
  for (const harness::ExperimentRow& row : rows) {
    table.add_row({row.workload, row.irregular ? "I" : "II",
                   harness::fmt(row.random.sample_pct, 2),
                   harness::fmt(row.simpoint.sample_pct, 2),
                   harness::fmt(row.tbpoint.sample_pct, 2),
                   std::to_string(row.simpoint_k),
                   std::to_string(row.tbp_clusters)});
    s_random.push_back(row.random.sample_pct);
    s_simpoint.push_back(row.simpoint.sample_pct);
    s_tbpoint.push_back(row.tbpoint.sample_pct);
  }
  table.add_separator();
  table.add_row({"geomean", "", harness::fmt_pct(harness::geomean_pct(s_random), 2),
                 harness::fmt_pct(harness::geomean_pct(s_simpoint), 2),
                 harness::fmt_pct(harness::geomean_pct(s_tbpoint), 2), "", ""});
  table.print();
  std::printf(
      "\npaper reports geomean sample sizes: Random 10%%, Ideal-SimPoint "
      "5.4%%, TBPoint 2.6%% (mst worst at 55%%)\n");
  return 0;
}
