// Content-addressed result store: durable, crash-safe, size-bounded.
//
// The store maps StoreKeys to immutable byte payloads (experiment rows,
// sealed response manifests).  On disk it is
//
//   <dir>/objects/<id[0:2]>/<id[2:]>.tbp    one sealed entry per key
//   <dir>/index.tbp                         the LRU index journal
//
// Entries are sharded two levels deep by the first hex byte of the key so
// no single directory grows unbounded.  Every entry is a sealed artifact
// (CRC32 trailer, see support/artifact) whose body carries an `id`/`label`
// header followed by the raw payload; writes go through the atomic
// temp-file + rename discipline, so a concurrent reader (or a crashed
// writer) can never observe a torn entry — only a complete old file, a
// complete new file, or a stray temp that recovery deletes.
//
// The index journal records (id, bytes, last-use tick, label) per entry
// plus the logical clock, and is itself a sealed artifact rewritten
// atomically after every mutation.  Ticks come from a monotonic in-process
// counter — never a wall clock — so the LRU order, and therefore the
// eviction sequence under a byte budget, is a deterministic function of the
// access sequence (ties broken by key id).  A missing or corrupt index is
// rebuilt by scanning the object directories: entries that fail validation
// are quarantined (deleted, counted), stray temp files are removed, and the
// rebuilt index starts every survivor at tick 0 in key order.
//
// Thread-safe within a process (one mutex).  Across processes the atomic
// renames keep individual files untorn, but the index is last-writer-wins:
// an entry dropped from a racing index rewrite is re-adopted by the next
// rebuild (the payload file is still there).  Single-writer deployments
// (tbpointd owns its store) never hit that case.
#pragma once

#include <cstdint>
#include <filesystem>
#include <map>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "obs/metrics.hpp"
#include "store/key.hpp"
#include "support/status.hpp"

namespace tbp::prof {
class ProfSession;
}  // namespace tbp::prof

namespace tbp::store {

struct StoreOptions {
  /// Byte budget over the sealed entry files; puts evict least-recently-
  /// used entries (never the one just written) until the total fits.
  std::uint64_t max_bytes = 1ull << 30;
  /// When false, open() of a nonexistent directory reports kNotFound
  /// instead of creating it (read-only probes of never-written caches).
  bool create = true;
  /// Record per-operation latency into the `store.latency_us` histogram of
  /// flush_metrics.  Off by default: latency is wall-clock data, and the
  /// default counters must stay byte-deterministic for the manifest tests.
  bool record_latency = false;
  /// Wall-clock self-profiling sink (src/prof; null = off).  Pure observer:
  /// GC/eviction passes and index rebuilds record store.evict /
  /// store.rebuild spans into it, and nothing feeds back into store
  /// contents or counters.
  prof::ProfSession* prof = nullptr;
};

/// Monotonic operation counters; totals are order-independent, so they are
/// deterministic for any interleaving of a fixed operation multiset.
struct StoreStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t puts = 0;
  std::uint64_t evictions = 0;
  std::uint64_t quarantined = 0;  ///< corrupt entries deleted
  std::uint64_t rebuilds = 0;     ///< index recoveries from a scan
};

/// One index row, exposed for tests and the store inspection tooling.
struct StoreEntryInfo {
  std::string id;
  std::string label;
  std::uint64_t bytes = 0;      ///< sealed file size on disk
  std::uint64_t last_use = 0;   ///< logical tick of the last get/put
};

class ContentStore {
 public:
  ContentStore(std::filesystem::path dir, StoreOptions options);

  ContentStore(const ContentStore&) = delete;
  ContentStore& operator=(const ContentStore&) = delete;

  /// Loads the index (rebuilding it from an object scan when missing or
  /// corrupt) and creates the directory layout when allowed.  Must be
  /// called, successfully, before any other member.
  [[nodiscard]] Status open();

  /// Payload bytes for `key`.  kNotFound on a plain miss; kCorrupt when the
  /// entry failed validation (it is quarantined — deleted and dropped from
  /// the index — so the next get is a clean miss).  A hit refreshes the
  /// entry's LRU tick.
  [[nodiscard]] Result<std::string> get(const StoreKey& key);

  /// Atomically writes the sealed entry, updates the index journal and
  /// enforces the byte budget by evicting LRU entries.  Re-putting an
  /// existing key overwrites its payload.
  [[nodiscard]] Status put(const StoreKey& key, std::string_view payload);

  /// Drops one entry (file + index row).  kNotFound when absent.
  [[nodiscard]] Status remove(const StoreKey& key);

  /// Index-only membership probe (no payload I/O, no LRU update).
  [[nodiscard]] bool contains(const StoreKey& key) const;

  /// Persists the in-memory index (get-side LRU ticks are journaled lazily;
  /// puts and evictions persist eagerly).
  [[nodiscard]] Status flush_index();

  /// Forces a rebuild from the object scan (see the header comment).
  [[nodiscard]] Status rebuild_index();

  [[nodiscard]] StoreStats stats() const;
  [[nodiscard]] std::size_t entry_count() const;
  [[nodiscard]] std::uint64_t total_bytes() const;
  /// Index rows sorted by key id.
  [[nodiscard]] std::vector<StoreEntryInfo> entries() const;

  /// Where `key`'s sealed entry lives (exists only if the key was put).
  [[nodiscard]] std::filesystem::path entry_path(const StoreKey& key) const;
  [[nodiscard]] const std::filesystem::path& dir() const noexcept {
    return dir_;
  }

  /// Dumps the counters as `store.*` metrics (hit/miss/put/eviction/
  /// quarantine/bytes/entries, plus the latency histogram when enabled).
  void flush_metrics(obs::MetricsShard* shard) const;

 private:
  struct IndexEntry {
    std::string label;
    std::uint64_t bytes = 0;
    std::uint64_t last_use = 0;
  };

  [[nodiscard]] Status write_index_locked();
  [[nodiscard]] Status load_index_locked(const std::string& text);
  [[nodiscard]] Status rebuild_locked();
  void quarantine_locked(const std::string& id);
  [[nodiscard]] Status evict_until_within_budget_locked(
      const std::string& keep_id);
  void record_latency_locked(double seconds);

  const std::filesystem::path dir_;
  const StoreOptions options_;

  mutable std::mutex mutex_;
  bool opened_ = false;                      // TBP_GUARDED_BY(mutex_)
  std::map<std::string, IndexEntry> index_;  // TBP_GUARDED_BY(mutex_) key id -> entry
  std::uint64_t total_bytes_ = 0;            // TBP_GUARDED_BY(mutex_)
  std::uint64_t tick_ = 0;                   // TBP_GUARDED_BY(mutex_)
  StoreStats stats_;                         // TBP_GUARDED_BY(mutex_)
  std::vector<std::uint64_t> latency_us_;    // TBP_GUARDED_BY(mutex_) raw samples when enabled
};

/// Entry/index file name constants, shared with tests.
inline constexpr std::string_view kObjectsDirName = "objects";
inline constexpr std::string_view kIndexFileName = "index.tbp";
inline constexpr std::string_view kEntrySuffix = ".tbp";

}  // namespace tbp::store
