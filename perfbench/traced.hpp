// The traced comparison: the same pipeline as harness::run_comparison,
// rebuilt from each layer's public calls so that every call gets a span.
// Its results must equal run_comparison's bit for bit; the benchmark checks
// that on every traced run.
#pragma once

#include <cstddef>
#include <cstdint>

#include "harness/experiment.hpp"
#include "obs/export.hpp"
#include "sim/config.hpp"
#include "spans.hpp"
#include "workloads/workload.hpp"

namespace tbp::perfbench {

struct TracedRow {
  /// The fields run_comparison fills, computed through the layer calls
  /// (timing fields and metrics excepted).
  harness::ExperimentRow row;
  std::uint64_t full_cycles = 0;
  std::uint64_t sampled_cycles = 0;
  std::uint64_t skipped_blocks = 0;
  std::size_t representatives = 0;
  std::size_t regions = 0;
  std::size_t units = 0;
  std::uint64_t skipped_inter_warp_insts = 0;
  std::uint64_t skipped_intra_warp_insts = 0;
  /// run_launch_checked calls made and how many returned an error.
  std::size_t launches_checked = 0;
  std::size_t launches_failed = 0;
};

/// Runs the four-way comparison for `workload` with one span per layer call
/// under `parent`.  Full simulations record their counters into `observe`
/// under "<workload>/full/<launch>".
[[nodiscard]] TracedRow traced_comparison(const workloads::Workload& workload,
                                          const sim::GpuConfig& config,
                                          const harness::ComparisonOptions& options,
                                          SpanLog& log, int parent, int row_index,
                                          obs::Observation& observe);

}  // namespace tbp::perfbench
