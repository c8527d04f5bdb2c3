// Related-work comparison (paper Section VI): analytical modeling vs
// sampled simulation.  The paper positions analytical models (Hong & Kim
// style MWP/CWP — its reference [15]) as trading accuracy for speed in
// design-space exploration, with simulation supplying detail for the
// configurations of interest.  This bench quantifies the trade on the
// Table VI suite: the analytical model answers instantly from the profile
// but with tens-of-percent error; TBPoint costs a sampled simulation and
// lands within a percent.
//
// Flags: the common flags (harness/cli.hpp) and --csv PATH.
#include "../bench/bench_common.hpp"
#include "analytical/mwp_cwp.hpp"
#include "profile/profiler.hpp"
#include "stats/error.hpp"
#include "support/walltime.hpp"

int main(int argc, char** argv) {
  using namespace tbp;
  std::string csv_path;
  const harness::CommonFlags flags = bench::read_bench_flags(argc, argv, &csv_path);
  const sim::GpuConfig config = sim::fermi_config();
  const std::vector<harness::ExperimentRow> rows =
      bench::collect_rows(flags, config);
  bench::maybe_write_csv(csv_path, rows);

  std::printf(
      "Related work: first-order analytical model (MWP/CWP) vs TBPoint "
      "(scale divisor %u)\n",
      flags.scale.divisor);
  harness::TablePrinter table({"benchmark", "full IPC", "analytical IPC",
                               "ana err%", "tbp err%", "ana time"});
  std::vector<double> ana_err;
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const harness::ExperimentRow& row = rows[i];
    const workloads::Workload workload =
        workloads::make_workload(row.workload, flags.scale);

    const profile::ApplicationProfile profile =
        profile::profile_application(workload.sources(), flags.jobs);
    const timing::WallTimer timer;
    const double analytical_ipc = analytical::predict_application_ipc(
        profile, workload.launches[0]->kernel(), config);
    const double micros = timer.seconds() * 1e6;
    const double err =
        stats::relative_error_pct(analytical_ipc, row.full_ipc);
    ana_err.push_back(err);
    table.add_row({row.workload, harness::fmt(row.full_ipc, 3),
                   harness::fmt(analytical_ipc, 3), harness::fmt(err, 1),
                   harness::fmt(row.tbpoint.err_pct, 2),
                   harness::fmt(micros, 0) + "us"});
  }
  table.add_separator();
  table.add_row({"geomean", "", "", harness::fmt_pct(harness::geomean_pct(ana_err), 1),
                 "", ""});
  table.print();
  std::printf(
      "\npaper (Section VI): analytical modeling trades accuracy for speed; "
      "simulation provides detail for configurations of interest\n");
  return 0;
}
