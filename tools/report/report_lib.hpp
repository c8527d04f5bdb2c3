// tbp-report: renders run manifests as accuracy dashboards and gates
// perf/accuracy trajectories between two manifests.
//
// Split from the CLI main so tests can drive the exact command paths
// (including exit codes) in-process.  Exit code contract:
//   0  success / no regression
//   1  at least one gated field regressed past --max-regress
//   2  input unreadable: missing file, truncated or CRC-corrupt manifest,
//      unknown schema, bad flags
#pragma once

#include <cstdio>
#include <string>
#include <vector>

namespace tbp::report {

inline constexpr int kExitOk = 0;
inline constexpr int kExitRegressed = 1;
inline constexpr int kExitUnreadable = 2;

struct CompareOptions {
  /// Maximum tolerated regression, percent, per gated field.
  double max_regress_pct = 10.0;
};

/// `tbp-report show <file>`: renders a manifest (tbp-manifest-v1), a
/// bench-perf document (tbp-bench-perf-v1), a service ledger
/// (tbp-service-stats-v1) or a self-profiling sidecar (tbp-prof-v1) as
/// tables on `out`.
[[nodiscard]] int cmd_show(const std::string& path, std::FILE* out);

/// `tbp-report prof <file>`: the self-profiling view of a tbp-prof-v1
/// sidecar — per-span counts, total time and latency percentiles
/// (p50/p95/p99).
[[nodiscard]] int cmd_prof(const std::string& path, std::FILE* out);

/// `tbp-report compare <old> <new> --max-regress <pct>`: flattens both
/// bodies to dotted numeric paths and gates the fields whose names declare
/// a direction — *seconds (lower is better), *per_second / *hit_rate
/// (higher is better), *error_pct / *err_ppb (lower absolute is better).
/// Fields present in only one file are reported but never gate.
[[nodiscard]] int cmd_compare(const std::string& old_path,
                              const std::string& new_path,
                              const CompareOptions& options, std::FILE* out);

/// Full argv-level entry point (argv[0] excluded), shared by main() and the
/// CLI tests.
[[nodiscard]] int run_report(const std::vector<std::string>& args,
                             std::FILE* out);

}  // namespace tbp::report
