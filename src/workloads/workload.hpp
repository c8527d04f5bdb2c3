// The 12 evaluated benchmarks (paper Table VI), modeled as synthetic
// multi-launch trace sources.
//
// Each model reproduces the structural properties the sampling methodology
// is sensitive to: launch count, total thread-block count, regular vs
// irregular per-block size patterns (Fig. 8), per-launch evolution (BFS
// frontier growth, MST contraction, iterative solvers re-running identical
// launches), memory intensity, coalescing and divergence.  The modeling
// rationale for every benchmark is documented at the top of its .cpp file.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "trace/generator.hpp"

namespace tbp::workloads {

/// Kernel classification from Table VI: Type I = irregular (block sizes
/// show no pattern against block id), Type II = regular.
enum class KernelType : std::uint8_t { kIrregular, kRegular };

struct Workload {
  std::string name;
  std::string suite;
  KernelType type = KernelType::kRegular;
  std::vector<std::unique_ptr<trace::SyntheticLaunch>> launches;

  [[nodiscard]] std::vector<const trace::LaunchTraceSource*> sources() const;
  [[nodiscard]] std::uint64_t total_blocks() const noexcept;
  [[nodiscard]] bool irregular() const noexcept {
    return type == KernelType::kIrregular;
  }
};

struct WorkloadScale {
  /// Per-launch block counts are divided by this (floored at a minimum that
  /// keeps every launch meaningful); launch counts are never scaled, since
  /// inter-launch sampling is about launch structure, not size.
  std::uint32_t divisor = 8;
  std::uint64_t seed = 0x7b90147;
};

/// Names in the paper's Table VI order.
[[nodiscard]] const std::vector<std::string>& workload_names();

/// Every name make_workload builds: the 12 Table VI names, then "binomial".
[[nodiscard]] std::vector<std::string> buildable_workload_names();

/// Builds one benchmark model; aborts on an unknown name.
[[nodiscard]] Workload make_workload(std::string_view name,
                                     const WorkloadScale& scale = {});

/// Builds all 12 benchmarks.
[[nodiscard]] std::vector<Workload> make_all_workloads(const WorkloadScale& scale = {});

}  // namespace tbp::workloads
