// The tbp-prof-v1 sidecar: sealed JSON export of a ProfSession.
//
// Profiling data NEVER enters a response or run manifest — it rides in
// this separate artifact so those stay byte-identical with profiling on
// or off.  The sidecar reuses the sealed-JSON envelope
// (crc32 + schema tag) so tbp-report can validate and render it like any
// other document.  Body shape:
//
//   {"spans": {"service.simulate": {"count": N, "total_seconds": ...,
//              "p50_seconds": ..., "p95_seconds": ..., "p99_seconds": ...,
//              "latency_us": {"bounds": [...], "counts": [...]}}, ...}}
//
// All scalar time fields end in _seconds: the tbp-lint prof-quarantine rule
// checks that suffix at the emission sites, which keeps wall time out of the
// fields the manifests keep byte-identical.
#pragma once

#include <string>
#include <string_view>

#include "obs/report.hpp"
#include "prof/prof.hpp"
#include "support/status.hpp"

namespace tbp::prof {

inline constexpr std::string_view kProfSchema = "tbp-prof-v1";

/// The sidecar body (unsealed) for `session`.
[[nodiscard]] obs::JsonValue prof_body(const ProfSession& session);

/// Just the "spans" object of prof_body: {name: {count, total_seconds,
/// p50/p95/p99_seconds, latency_us}}.  Also embedded by the service stats
/// document (tbp-service-stats-v1).
[[nodiscard]] obs::JsonValue spans_to_value(const ProfSession& session);

/// Seals prof_body under tbp-prof-v1 and writes it atomically to `path`.
[[nodiscard]] Status write_prof_sidecar(const ProfSession& session,
                                        const std::string& path);

}  // namespace tbp::prof
