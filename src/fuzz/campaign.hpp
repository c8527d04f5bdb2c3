// Fuzz campaigns: many seeds through generate -> check -> shrink.
//
// A campaign is the unit both the PR gate and the nightly job run: N seeds
// derived from one base seed, each generated, oracle-checked and — on
// failure — minimized.  Outcomes land in per-seed indexed slots, so the
// result (and its JSON summary) is byte-identical for every --jobs value,
// the same determinism contract run_comparison itself honors.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "fuzz/generate.hpp"
#include "fuzz/oracle.hpp"
#include "fuzz/shrink.hpp"
#include "obs/report.hpp"

namespace tbp::fuzz {

struct CampaignOptions {
  /// Seed i of the campaign is splitmix64(base_seed + i): distinct per
  /// slot, stable across runs, and overlapping windows of one seed
  /// sequence for nearby base seeds (so nightly ranges extend the PR
  /// gate's coverage instead of resampling it).
  std::uint64_t base_seed = 0x7b90147;
  std::size_t n_seeds = 25;
  /// Concurrency across seeds (each seed's oracle work stays internally
  /// deterministic regardless).
  std::size_t jobs = 1;
  GeneratorLimits limits;
  OracleBounds bounds;
  ShrinkOptions shrink;
  /// Minimize failing specs before reporting them (off = report the raw
  /// generated spec, cheaper when only the verdict matters).
  bool shrink_failures = true;
};

/// The verdict for one seed.
struct SeedOutcome {
  std::uint64_t seed = 0;
  bool ok = true;
  /// "none" or a "+"-joined stage tag ("accuracy+parallel").
  std::string violation_tag = "none";
  std::vector<OracleViolation> violations;
  /// Failing seeds only: the spec to persist as a reproducer — minimized
  /// when shrinking ran and made progress, the generated spec otherwise.
  workloads::WorkloadSpec repro_spec;
  bool shrunk = false;
  std::size_t shrink_attempts = 0;
  /// Diagnostics from the serial comparison (0 when no comparison ran).
  double tbpoint_err_pct = 0.0;
};

struct CampaignResult {
  std::vector<SeedOutcome> outcomes;  ///< one per seed, in slot order

  [[nodiscard]] std::size_t n_failures() const noexcept;
  [[nodiscard]] bool ok() const noexcept { return n_failures() == 0; }
};

/// Runs the campaign.  Deterministic: equal options and config produce an
/// equal CampaignResult for every `options.jobs` value.
[[nodiscard]] CampaignResult run_campaign(const sim::GpuConfig& config,
                                          const CampaignOptions& options);

/// Checks one already-known seed (corpus replay): generate, check, and on
/// failure optionally shrink — the same path run_campaign takes per slot.
[[nodiscard]] SeedOutcome check_seed(std::uint64_t seed,
                                     const sim::GpuConfig& config,
                                     const CampaignOptions& options);

/// Deterministic JSON summary: options echo, per-failure details (seed,
/// tag, violation text, minimized spec) and aggregate counts.  Contains no
/// wall-clock data, so equal results serialize to equal bytes.
[[nodiscard]] obs::JsonValue campaign_to_value(const CampaignOptions& options,
                                               const CampaignResult& result);

}  // namespace tbp::fuzz
