// Wall-clock self-profiling, rigorously quarantined from simulated state.
//
// The simulator's own artifacts are deterministic and cycle-denominated;
// this layer answers the one question they cannot: where does *real* time
// go?  Two consumers drive the design (see DESIGN.md "Self-profiling"):
//
//  1. tbpointd and the content store report request-lifecycle and GC spans
//     into deterministic-bucket latency histograms (fixed power-of-two
//     microsecond bounds, so two runs of the same build always bucket the
//     same way and histograms merge bucket-by-bucket).
//  2. `tbp-report show` renders the sealed tbp-prof-v1 sidecar
//     (sidecar.hpp).
//
// Quarantine rules, enforced by tests and by tbp-lint's prof-quarantine
// rule family:
//
//  - Every clock read flows through support/walltime (the lint-allowlisted
//    doorway); this layer never touches <chrono> directly.
//  - Profiling output lives ONLY in the tbp-prof-v1 sidecar — never in
//    sealed responses or manifests.  tbpointd's responses are byte-identical
//    with profiling on and off (tests/service/service_determinism_test.cpp
//    + the CI service jobs pin this).
//  - Prof values may only reach `*_seconds` reporting fields (the lint sink
//    rule), so a wall-clock number can never masquerade as a simulated
//    quantity downstream.
//
// Profiling is switched on and off at run time only: a ScopedSpan given a
// null ProfSession pointer records nothing and reads no clock.
#pragma once

#include <cstdint>
#include <map>
#include <span>
#include <string>
#include <string_view>

#include "obs/metrics.hpp"
#include "support/synchronized.hpp"

namespace tbp::prof {

/// Fixed microsecond bucket upper bounds for latency histograms: powers of
/// two from 1us to ~67s.  Fixed at compile time so every histogram of every
/// run buckets identically and merges bucket-by-bucket.
[[nodiscard]] std::span<const std::uint64_t> latency_bounds() noexcept;

/// Deterministic percentile estimate over a fixed-bucket histogram: the
/// upper bound of the first bucket whose cumulative count reaches
/// ceil(q * total).  Values in the overflow bucket saturate to the last
/// bound.  0 for empty histograms.
[[nodiscard]] std::uint64_t percentile_upper_bound(const obs::Histogram& hist,
                                                   double q) noexcept;

/// Thread-safe cold-path aggregation point for one process/run.  Service
/// stages record spans concurrently; everything serializes on one mutex
/// because every call is per-request, never per-cycle.
class ProfSession {
 public:
  struct SpanStats {
    obs::Histogram latency_us;  ///< over latency_bounds()
    double total_seconds = 0.0;
    std::uint64_t count = 0;
  };

  /// Records one span occurrence of `duration_seconds`.
  void record_span(std::string_view name, double duration_seconds);

  [[nodiscard]] std::map<std::string, SpanStats> span_snapshot() const;

 private:
  mutable par::Synchronized<std::map<std::string, SpanStats>> spans_;
};

/// Wall-clock span bracket over an optional ProfSession: records one span
/// on finish()/destruction, reads no clock at all when profiling is off or
/// no session is attached.  `name` must outlive the bracket (string
/// literals at every call site).
class ScopedSpan {
 public:
  ScopedSpan(ProfSession* session, std::string_view name);

  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  ~ScopedSpan() { finish(); }

  /// Records the span now (idempotent); the destructor records otherwise.
  void finish();

  /// Drops the bracket without recording (e.g. a GC pass that found
  /// nothing to do and should not pollute the latency histogram).
  void cancel() noexcept { session_ = nullptr; }

 private:
  ProfSession* session_;
  std::string_view name_;
  double start_;
};

}  // namespace tbp::prof
