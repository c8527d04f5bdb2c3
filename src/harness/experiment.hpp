// The evaluation driver shared by every figure bench: runs Full, Random,
// Ideal-SimPoint and TBPoint over one workload under one GPU configuration
// and collects everything Figs. 9-13 report (IPCs, errors, sample sizes,
// skip breakdowns).
#pragma once

#include <cstdint>
#include <string>

#include "baselines/ideal_simpoint.hpp"
#include "baselines/random_sampling.hpp"
#include "baselines/systematic_sampling.hpp"
#include "core/attribution.hpp"
#include "core/tbpoint.hpp"
#include "obs/export.hpp"
#include "sim/config.hpp"
#include "workloads/workload.hpp"

namespace tbp::harness {

struct ComparisonOptions {
  core::TBPointOptions tbpoint;
  baselines::RandomSamplingOptions random;
  baselines::SimpointOptions simpoint;
  baselines::SystematicSamplingOptions systematic;
  /// Fixed-size sampling units per application for the baselines: the unit
  /// instruction count is total insts / target_units, clamped below.  The
  /// paper's 1M-instruction units land its kernels in the regime of
  /// one-to-a-few-hundred units per kernel; 120 keeps the same regime at
  /// our workload scale.
  std::size_t target_units = 120;
  std::uint64_t min_unit_insts = 4000;
  std::uint64_t max_unit_insts = 1u << 20;
  /// Maximum concurrency for the independent launch simulations inside the
  /// comparison (1 = serial).  Deliberately *not* part of the experiment
  /// cache key: every jobs value produces bit-identical results (each
  /// launch gets its own freshly constructed simulator and results are
  /// collected by launch index, never by completion order) — only the
  /// wall-clock timing fields vary.
  std::size_t jobs = 1;
  std::uint32_t sim_jobs = 1;  ///< unused: nothing in the pipeline reads it
  /// Optional observability session shared by every simulation this
  /// comparison runs (null = off).  Shard/buffer keys are prefixed with the
  /// workload name, so one session can span many rows; pure observers, so
  /// the row's results are unchanged (and byte-identical) either way.
  obs::Observation* observe = nullptr;
};

struct MethodResult {
  double ipc = 0.0;
  double err_pct = 0.0;     ///< |ipc - full| / full * 100
  double sample_pct = 0.0;  ///< simulated insts / total insts * 100
};

struct ExperimentRow {
  std::string workload;
  bool irregular = false;
  std::size_t n_launches = 0;
  std::uint64_t total_blocks = 0;
  std::uint64_t total_warp_insts = 0;
  /// Warp instructions the *full simulation* retired, summed over launches.
  /// The functional profiler and the timing simulator walk the same traces,
  /// so this must equal total_warp_insts (the profiler's count) — the
  /// differential count oracle in src/fuzz pins the two against each other.
  /// Like the timing fields, never persisted: cached rows come back with 0.
  std::uint64_t full_retired_warp_insts = 0;

  double full_ipc = 0.0;
  MethodResult random;
  MethodResult simpoint;
  MethodResult tbpoint;
  /// Periodic (systematic) sampling — the related-work technique of paper
  /// Section VI; not part of the paper's figures but reported by
  /// bench/related_systematic for the comparison the prose makes.
  MethodResult systematic;

  double inter_skip_share = 0.0;  ///< Fig. 11: TBPoint inter share of skips
  std::size_t simpoint_k = 0;
  std::size_t tbp_clusters = 0;   ///< inter-launch clusters found
  std::uint64_t unit_insts = 0;

  double full_sim_seconds = 0.0;
  double tbp_seconds = 0.0;       ///< profile + cluster + sampled sims

  /// True when this row was loaded from the on-disk result cache rather
  /// than computed in this process.  The timing fields of a cached row are
  /// wall-clock measurements from the *original* run (possibly a different
  /// host, build, or jobs setting) — timing-consuming consumers must
  /// re-time or annotate.  Never persisted; set by the cache loader.
  bool from_cache = false;

  /// Merged metrics recorded while computing this row (empty when
  /// observability is off or the row was loaded from the cache).  Like the
  /// timing fields, never persisted: metrics describe the computing run.
  obs::MetricsSnapshot metrics;

  /// Decomposition of TBPoint's IPC error into inter-launch projection,
  /// intra-launch warm-up and reconstruction-weighting components, computed
  /// against this row's own full-simulation ground truth.  Never persisted:
  /// cached rows come back with `attribution.valid == false` (the per-launch
  /// exact cycles it needs are not part of the cache format).
  core::ErrorAttribution attribution;
};

/// Version of the simulator model behind every ExperimentRow: the crc32 of
/// bench/baselines/model_fingerprint.json, which records the profile of
/// every launch of all 12 workloads and the first blocks of each one's first
/// and largest launch under both schedulers.  The model_fingerprint test
/// forces that file to be regenerated whenever one of those numbers moves,
/// and tests/harness pins this constant to its digest, so the version
/// changes with them.  Keys of stored results mix it in
/// (experiment_store_key, service::spec_store_key), so a result computed
/// by another model is a miss, never a stale hit.
inline constexpr std::uint32_t kModelVersion = 0xd1d03f40;

/// Runs the full four-way comparison.  Deterministic for fixed inputs:
/// every field except the wall-clock `*_seconds` measurements is
/// bit-identical across runs and across `options.jobs` values.
[[nodiscard]] ExperimentRow run_comparison(const workloads::Workload& workload,
                                           const sim::GpuConfig& config,
                                           const ComparisonOptions& options = {});

/// Number of run_comparison calls that started in this process.  Test
/// instrumentation: tells a row computed by cached_comparison or the
/// service apart from one loaded from the store.
[[nodiscard]] std::size_t run_comparison_invocations() noexcept;

}  // namespace tbp::harness
