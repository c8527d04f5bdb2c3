// tbpointd's engine: admission, dedup, batching and response writing over
// one spool directory and one content-addressed response store.
//
// One drain pass:
//
//   1. Claim every pending request (sorted id order; rename races lost to
//      another daemon are skipped).
//   2. Parse each line.  Malformed requests get a sealed error response
//      immediately — admission never lets bad input reach the batch.
//   3. Group the valid requests by their canonical fingerprint.  Duplicate
//      in-flight requests collapse into one group (the dedup the flat
//      cache could never give the CLI tools across processes).
//   4. Probe the store per group.  Groups whose response manifest is
//      already stored are served without simulating; missing groups are
//      simulated via support/parallel (across groups, or inside the single
//      group when the batch has only one) and their manifests stored.
//   5. Answer every request id.  The first id of a computed group is
//      served from the in-memory bytes; every other id is served by a
//      store read — so a cold batch of N identical requests costs exactly
//      one simulation and leaves the store hit counter at N-1, which is
//      the dedup proof the service tests pin.
//
// Responses are byte-identical to `tbpoint_cli compare ... --manifest` for
// the same spec, independent of jobs and of how requests were
// batched or deduplicated.
#pragma once

#include <atomic>
#include <cstdint>
#include <filesystem>
#include <memory>

#include "obs/metrics.hpp"
#include "service/request.hpp"
#include "service/spool.hpp"
#include "store/store.hpp"
#include "support/status.hpp"

namespace tbp::prof {
class ProfSession;
}  // namespace tbp::prof

namespace tbp::service {

struct DaemonOptions {
  std::filesystem::path spool_dir;
  /// Response store location; empty = `<spool_dir>/store`.
  std::filesystem::path store_dir;
  std::uint64_t store_max_bytes = 256ull << 20;
  /// Worker budget for a drain pass (across request groups, or inside a
  /// lone group's comparison).  Results are jobs-independent.
  std::size_t jobs = 1;
  /// serve() idle poll interval.
  std::uint32_t poll_ms = 50;
  /// serve() exits after answering this many requests (0 = no limit).
  std::uint64_t max_requests = 0;
  /// Wall-clock self-profiling sink (src/prof); also handed to the response
  /// store for GC/rebuild timing.  Pure observer: request lifecycle spans
  /// (spool wait, claim, dedup, probe, simulate, store write, respond) are
  /// recorded into the session's latency histograms, and nothing flows back
  /// into responses — they stay byte-identical with or without it.
  prof::ProfSession* prof = nullptr;
};

/// Monotonic service counters (store.* counters live in the store).
struct ServiceStats {
  std::uint64_t claimed = 0;      ///< requests claimed from the inbox
  std::uint64_t malformed = 0;    ///< rejected at admission
  std::uint64_t deduped = 0;      ///< duplicates collapsed into a group
  std::uint64_t simulations = 0;  ///< comparisons actually run
  std::uint64_t responses = 0;    ///< response documents written
};

class Daemon {
 public:
  explicit Daemon(DaemonOptions options);

  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  /// Creates the spool layout and opens the response store.
  [[nodiscard]] Status open();

  /// One drain pass over the inbox (see the header comment).  Returns the
  /// number of responses written.  Request-level failures become error
  /// responses, not pass failures; only spool/store-level breakage errors.
  [[nodiscard]] Result<std::size_t> drain_once();

  /// Polls drain_once until `*stop` becomes true or max_requests responses
  /// have been written.
  [[nodiscard]] Status serve(const std::atomic<bool>& stop);

  [[nodiscard]] ServiceStats stats() const;
  [[nodiscard]] store::ContentStore& response_store();

  /// Folds service.* and store.* counters into `shard`.
  void flush_metrics(obs::MetricsShard* shard) const;

 private:
  const DaemonOptions options_;
  std::unique_ptr<store::ContentStore> store_;
  ServiceStats stats_;
};

}  // namespace tbp::service
