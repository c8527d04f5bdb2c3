// tbp-report: renders run manifests as accuracy dashboards, and the other
// sealed documents as tables.
//
// Split from the CLI main so tests can drive the exact command path
// (including exit codes) in-process.  Exit code contract:
//   0  rendered
//   2  input unreadable: missing file, truncated or CRC-corrupt document,
//      unknown schema, bad command line
#pragma once

#include <cstdio>
#include <string>
#include <vector>

namespace tbp::report {

inline constexpr int kExitOk = 0;
inline constexpr int kExitUnreadable = 2;

/// `tbp-report show <file>`: renders a manifest (tbp-manifest-v1), a
/// bench-perf document (tbp-bench-perf-v1), a service ledger
/// (tbp-service-stats-v1) or a self-profiling sidecar (tbp-prof-v1) as
/// tables on `out`.
[[nodiscard]] int cmd_show(const std::string& path, std::FILE* out);

/// Full argv-level entry point (argv[0] excluded), shared by main() and the
/// CLI tests.
[[nodiscard]] int run_report(const std::vector<std::string>& args,
                             std::FILE* out);

}  // namespace tbp::report
