// Command-line parsing for every tool and bench binary: one strict reader
// (Args), and the readers of the flags several binaries share.  A value flag
// takes `--name value` or `--name=value` (never a `--` token as its value),
// a switch `--name` alone; the leading non-flag tokens are positionals.  A
// missing or malformed value, a repeated flag, a switch given a value and
// (at finish()) any unread flag or argument exit 2.  Each binary reads all
// of its flags and calls finish() before it does any work.
//
// The common flags (CommonFlags) of the benches that call collect_rows:
//   --scale N          workload scale divisor (default 4)
//   --seed S           workload seed (decimal or 0x hex)
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
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
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

/// The bounds of an SM count and of a warps-per-SM count, applied by every
/// front end (tbpoint_cli, tbp-client, tbp-fuzz, tbpointd's request
/// parser): kInvalidArgument "must be in [1, 1024]" outside them.
[[nodiscard]] Status validate_gpu_size(std::uint64_t value);

/// One binary's command line, read once (rules in the header comment).
/// Every getter marks the tokens it reads; finish() rejects the rest.
class Args {
 public:
  /// `tool` prefixes every message; the usage line is
  /// "usage: <tool> <synopsis>".
  Args(int argc, char** argv, std::string tool, std::string_view synopsis);

  /// The next leading positional, or "" when none is left.
  [[nodiscard]] std::string positional();

  /// True if the switch `name` (e.g. "--gto") was given.
  [[nodiscard]] bool flag(std::string_view name);

  /// The value of the value flag `name`, or nullopt when it was not given.
  [[nodiscard]] std::optional<std::string> value(std::string_view name);

  /// The value parsed with parse_u64 / parse_u32 / parse_double; one that
  /// does not parse exits 2 with "invalid value for NAME: ...".
  [[nodiscard]] std::optional<std::uint64_t> u64(std::string_view name,
                                                 int base = 10);
  [[nodiscard]] std::optional<std::uint32_t> u32(std::string_view name);
  [[nodiscard]] std::optional<double> real(std::string_view name);

  /// Exits 2 with the usage line if any flag or argument was left unread.
  void finish() const;

  /// Each prints "<tool>: ..." on stderr and exits 2: "invalid value for
  /// NAME: <why>" (check: unless `status` is ok), `message`, or `reason`
  /// (unless empty) followed by the usage line.
  void check(std::string_view name, const Status& status) const;
  [[noreturn]] void bad_value(std::string_view name,
                              const std::string& why) const;
  [[noreturn]] void die(const std::string& message) const;
  [[noreturn]] void usage_error(const std::string& reason = "") const;

 private:
  /// The index of the one token naming `name` (marked read), or npos.
  [[nodiscard]] std::size_t find(std::string_view name);

  std::string tool_;
  std::string usage_;
  std::vector<std::string> tokens_;  ///< argv[1..]
  std::vector<bool> read_;
  std::size_t n_positionals_ = 0;    ///< leading non-flag tokens
  std::size_t next_positional_ = 0;
};

/// The workload scale of every binary that takes --scale and --seed.
inline constexpr workloads::WorkloadScale kDefaultScale{.divisor = 4,
                                                        .seed = 0x7b90147};

/// --scale N (>= 1) and --seed S (decimal or 0x hex), each defaulting to
/// kDefaultScale's.
[[nodiscard]] workloads::WorkloadScale read_scale(Args& args);

/// --jobs N (>= 1, default: hardware concurrency).
[[nodiscard]] std::size_t read_jobs(Args& args);

/// --benchmarks a,b,... (Table VI names), or `fallback` when not given.
[[nodiscard]] std::vector<std::string> read_benchmarks(
    Args& args, std::vector<std::string> fallback);

struct CommonFlags {
  workloads::WorkloadScale scale = kDefaultScale;
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

/// The synopsis of the common flags, for a bench's usage line.
inline constexpr std::string_view kCommonFlagsSynopsis =
    "[--scale N] [--seed S] [--benchmarks a,b,...] [--no-cache] "
    "[--cache-dir PATH] [--jobs N] [--metrics PATH] [--trace PATH] "
    "[--manifest PATH] [--perf-json PATH]";

/// Reads the common flags (--no-cache wins over --cache-dir).
[[nodiscard]] CommonFlags parse_common_flags(Args& args);

}  // namespace tbp::harness
