// The constant-M throughput model the paper contrasts against.
//
// Prior fine-grained multithreading models (Chen & Aamodt, HPCA 2009 — the
// paper's reference [13]) treat the stall latency M as a constant.  The
// paper's argument for its Monte-Carlo extension is that DRAM queuing makes
// M a random variable, and a constant-M model cannot quantify the IPC
// *variation* a homogeneous interval exhibits — only its mean.  This header
// provides the constant-M model plus a comparison helper that quantifies
// exactly that gap; tests/markov/constant_latency_test.cpp is its only
// caller (the Fig. 5 bench runs the stochastic model alone).
#pragma once

#include <cstddef>

#include "markov/monte_carlo.hpp"
#include "markov/warp_chain.hpp"

namespace tbp::markov {

/// IPC of an SM with `n_warps` warps, stall probability `p` and *constant*
/// stall latency `m` — the reference-[13] style model.  Equals the mean of
/// the stochastic model when the M distribution collapses to a point.
[[nodiscard]] double constant_latency_ipc(double p, double m, std::size_t n_warps);

struct ModelComparison {
  double constant_m_ipc = 0.0;  ///< the deterministic prediction
  double stochastic_mean_ipc = 0.0;
  double stochastic_p5_ipc = 0.0;   ///< 5th percentile of the Monte Carlo
  double stochastic_p95_ipc = 0.0;  ///< 95th percentile

  /// Width of the 5th..95th percentile band relative to the mean — the IPC
  /// variation that the constant-M model cannot express at all.
  [[nodiscard]] double unmodeled_variation() const noexcept {
    return stochastic_mean_ipc == 0.0
               ? 0.0
               : (stochastic_p95_ipc - stochastic_p5_ipc) / stochastic_mean_ipc;
  }
};

/// Runs both models on one configuration.
[[nodiscard]] ModelComparison compare_models(const MonteCarloConfig& config);

}  // namespace tbp::markov
