// Figure 9: overall IPC of Full / Random / Ideal-SimPoint / TBPoint for the
// 12 Table VI benchmarks, plus the geometric-mean sampling errors the paper
// quotes (Random 7.95%, Ideal-SimPoint 1.74%, TBPoint 0.47%).
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

  std::printf("Figure 9: Overall IPC (scale divisor %u)\n", flags.scale.divisor);
  harness::TablePrinter table(
      {"benchmark", "type", "Full", "Random", "IdealSP", "TBPoint", "errR%",
       "errSP%", "errTBP%"});
  std::vector<double> err_random;
  std::vector<double> err_simpoint;
  std::vector<double> err_tbpoint;
  for (const harness::ExperimentRow& row : rows) {
    table.add_row({row.workload, row.irregular ? "I" : "II",
                   harness::fmt(row.full_ipc, 3), harness::fmt(row.random.ipc, 3),
                   harness::fmt(row.simpoint.ipc, 3),
                   harness::fmt(row.tbpoint.ipc, 3),
                   harness::fmt(row.random.err_pct, 2),
                   harness::fmt(row.simpoint.err_pct, 2),
                   harness::fmt(row.tbpoint.err_pct, 2)});
    err_random.push_back(row.random.err_pct);
    err_simpoint.push_back(row.simpoint.err_pct);
    err_tbpoint.push_back(row.tbpoint.err_pct);
  }
  table.add_separator();
  table.add_row({"geomean error", "", "", "", "", "",
                 harness::fmt_pct(harness::geomean_pct(err_random), 2),
                 harness::fmt_pct(harness::geomean_pct(err_simpoint), 2),
                 harness::fmt_pct(harness::geomean_pct(err_tbpoint), 2)});
  table.print();
  std::printf(
      "\npaper reports geomean errors: Random 7.95%%, Ideal-SimPoint 1.74%%, "
      "TBPoint 0.47%%\n");
  return 0;
}
