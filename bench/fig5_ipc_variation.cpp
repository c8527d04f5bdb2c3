// Figure 5: IPC variation of a homogeneous interval under stochastic stall
// latency (Lemma 4.1).  For each (p, M, N) configuration the Markov chain
// of Eq. 3 is solved for 10,000 Monte-Carlo draws of per-warp M ~ N(mu,
// sigma) with sigma = 0.1*mu/1.96; the figure's claim is that >= 95% of
// samples land within 10% of the mean IPC.
//
// Flags: --samples N (default 10000, >= 1); anything else is a usage error.
#include <cstdint>
#include <cstdio>

#include "harness/cli.hpp"
#include "harness/table.hpp"
#include "markov/monte_carlo.hpp"

int main(int argc, char** argv) {
  using namespace tbp;
  harness::Args args(argc, argv, argv[0], "[--samples N]");
  const std::size_t n_samples = args.u64("--samples").value_or(10000);
  if (n_samples == 0) args.bad_value("--samples", "must be >= 1");
  args.finish();

  struct Config {
    double p;
    double m;
    std::size_t n;
  };
  // The paper's legend style: p0.05M100N4 etc.
  const Config configs[] = {
      {0.05, 100, 4}, {0.05, 400, 4}, {0.1, 100, 4},  {0.1, 400, 4},
      {0.2, 100, 4},  {0.2, 400, 4},  {0.05, 400, 8}, {0.1, 400, 8},
      {0.2, 400, 8},  {0.1, 100, 8},
  };

  std::printf("Figure 5: IPC variation of a homogeneous interval (%zu samples)\n",
              n_samples);
  harness::TablePrinter table({"config", "meanIPC", "min/mean", "max/mean",
                               "within5%", "within10%", "Lemma4.1"});
  for (const Config& c : configs) {
    markov::MonteCarloConfig mc;
    mc.stall_probability = c.p;
    mc.mean_stall_cycles = c.m;
    mc.n_warps = c.n;
    mc.n_samples = n_samples;
    const markov::MonteCarloResult result = markov::run_ipc_variation(mc);
    char label[64];
    std::snprintf(label, sizeof label, "p%.2fM%.0fN%zu", c.p, c.m, c.n);
    table.add_row({label, harness::fmt(result.mean_ipc, 4),
                   harness::fmt(result.min_ipc / result.mean_ipc, 4),
                   harness::fmt(result.max_ipc / result.mean_ipc, 4),
                   harness::fmt_pct(100.0 * result.fraction_within_5pct, 1),
                   harness::fmt_pct(100.0 * result.fraction_within_10pct, 1),
                   markov::satisfies_lemma_4_1(result) ? "holds" : "VIOLATED"});
  }
  table.print();
  std::printf(
      "\npaper: more than 95%% of samples within 10%% of the mean IPC for "
      "every configuration\n");
  return 0;
}
