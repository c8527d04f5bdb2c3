// Minimal command-line parsing shared by the bench binaries.
//
// Common flags:
//   --scale N          workload scale divisor (default 4)
//   --seed S           workload seed
//   --benchmarks a,b   comma-separated subset of Table VI names
//   --no-cache         recompute instead of using ./tbpoint_cache
//   --cache-dir PATH   cache location
//   --jobs N           max parallel experiment rows / launch simulations
//                      (default: hardware concurrency; 1 = fully serial).
//                      Results are bit-identical for every value; only
//                      wall-clock changes.
//   --metrics PATH     write merged simulator/sampler counters + histograms
//                      as JSON (see DESIGN.md "Observability")
//   --trace PATH       write a chrome://tracing timeline JSON
//   --manifest PATH    write a sealed tbp-manifest-v1 run manifest
//                      (byte-identical for every --jobs value)
//   --perf-json PATH   write a sealed tbp-bench-perf-v1 wall-time/throughput
//                      document (BENCH_PERF.json; wall-clock, so NOT
//                      byte-identical across runs)
//
// Every flag also accepts the --name=value spelling.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "support/parallel.hpp"
#include "support/status.hpp"
#include "workloads/workload.hpp"

namespace tbp::harness {

/// Strict numeric parsing for flag values: the whole string must be one
/// number (no trailing junk, no empty string, no negatives for unsigned),
/// so `--scale abc` is a usage error instead of silently becoming 0.
/// `base` follows strtoull (0 = auto-detect 0x/octal prefixes).
[[nodiscard]] Result<std::uint64_t> parse_u64(const std::string& text,
                                              int base = 10);
[[nodiscard]] Result<std::uint32_t> parse_u32(const std::string& text);
[[nodiscard]] Result<double> parse_double(const std::string& text);

/// Validates a WorkloadScale at the parse boundary: kInvalidArgument when
/// divisor == 0 (the workload builders' documented precondition is
/// divisor >= 1; it used to be silently clamped to 1, masking the error).
/// Every --scale consumer routes through this so the rejection message is
/// uniform across tools.
[[nodiscard]] Status validate_scale(const workloads::WorkloadScale& scale);

struct CommonFlags {
  workloads::WorkloadScale scale{.divisor = 4, .seed = 0x7b90147};
  std::vector<std::string> benchmarks;  ///< empty = all 12
  std::string cache_dir = "tbpoint_cache";
  std::size_t jobs = par::default_jobs();  ///< strict-parsed --jobs, >= 1
  std::string metrics_path;  ///< --metrics output file; empty = off
  std::string trace_path;    ///< --trace output file; empty = off
  std::string manifest_path;  ///< --manifest output file; empty = off
  std::string perf_json_path; ///< --perf-json output file; empty = off

  [[nodiscard]] const std::vector<std::string>& benchmark_list() const {
    return benchmarks.empty() ? workloads::workload_names() : benchmarks;
  }
};

/// Parses the common flags; prints usage and exits(2) on an unknown flag
/// unless it appears in `extra_allowed` (flags the binary parses itself).
[[nodiscard]] CommonFlags parse_common_flags(
    int argc, char** argv, const std::vector<std::string>& extra_allowed = {});

/// True if `flag` (e.g. "--full") was passed.
[[nodiscard]] bool has_flag(int argc, char** argv, const std::string& flag);

/// Value of `--name value` or `--name=value`, or `fallback`.
[[nodiscard]] std::string flag_value(int argc, char** argv, const std::string& name,
                                     const std::string& fallback);

}  // namespace tbp::harness
