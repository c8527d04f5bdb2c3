// On-disk result cache for experiment rows, backed by the content-addressed
// store (src/store).
//
// Figures 9, 10 and 11 are views of the same four-way comparison, and the
// hardware-sensitivity sweeps re-run it per configuration; since every run
// is deterministic, rows are cached under a key that fingerprints the
// workload, scale, GPU configuration, every sampling option and the
// simulator model (kModelVersion), so each (workload, config) pair is
// simulated once per model no matter how many bench binaries ask for it.
// A row computed by an older model is a miss, never a stale hit; pass
// --no-cache to force recomputation anyway.
//
// Layout: each cache directory holds one ContentStore (sharded objects/
// tree + index journal).  Rows are sealed tbpoint-row-v3 artifacts stored
// as entry payloads, addressed by a hash of the experiment key and the
// model version.  Nothing else in the directory is ever read.  Corrupt
// entries are quarantined on read, making the next lookup a clean miss
// instead of a persistent failure.
#pragma once

#include <cstddef>
#include <filesystem>
#include <string>

#include "harness/experiment.hpp"
#include "obs/metrics.hpp"
#include "sim/config.hpp"
#include "store/key.hpp"
#include "support/status.hpp"
#include "workloads/workload.hpp"

namespace tbp::harness {

/// Fingerprint of an ExperimentRow's inputs: workload, scale, GPU
/// configuration and every sampling option
/// ("<workload>_d<divisor>_s<hexseed>_c<option-hash>").  The simulator
/// model is not an input here; experiment_store_key adds it.
[[nodiscard]] std::string experiment_key(const std::string& workload_name,
                                         const workloads::WorkloadScale& scale,
                                         const sim::GpuConfig& config,
                                         const ComparisonOptions& options);

/// Store address for an experiment key.  The row codec version and
/// kModelVersion are mixed in, so a row-format bump or a model change
/// starts a fresh namespace instead of serving old payloads.
[[nodiscard]] store::StoreKey experiment_store_key(const std::string& key);

/// Where `key`'s row lives inside `cache_dir`'s store (for tests and
/// tooling that corrupt or inspect entries on disk).
[[nodiscard]] std::filesystem::path cached_row_path(const std::string& cache_dir,
                                                    const std::string& key);

/// kNotFound on a plain miss (including a cache directory that does not
/// exist yet — lookups never create it); kCorrupt/kVersionMismatch/
/// kTooLarge when the entry failed validation (the bad entry is quarantined
/// so the next run starts from a clean miss).
[[nodiscard]] Result<ExperimentRow> load_cached_row(const std::string& cache_dir,
                                                    const std::string& key);

/// Atomic write; caching stays best-effort, so callers may discard the
/// returned Status with an explicit (void) cast, but it says why a row
/// could not be persisted.
[[nodiscard]] Status save_cached_row(const std::string& cache_dir,
                                     const std::string& key,
                                     const ExperimentRow& row);

/// Cached wrapper around run_comparison: builds the workload and runs the
/// comparison only on a cache miss.  `cache_dir` empty disables caching.
/// Thread-safe: concurrent calls for one key may each compute the row, and
/// each store put is atomic, so every caller gets the same row.  Rows
/// loaded from disk come back with `from_cache` set.
[[nodiscard]] ExperimentRow cached_comparison(const std::string& workload_name,
                                              const workloads::WorkloadScale& scale,
                                              const sim::GpuConfig& config,
                                              const ComparisonOptions& options,
                                              const std::string& cache_dir);

/// Folds the `store.*` counters of every cache store opened by this
/// process into `shard`, in sorted cache-directory order.
void flush_cache_metrics(obs::MetricsShard* shard);

}  // namespace tbp::harness
