// Observation sessions and JSON export.
//
// An Observation is the aggregation point one run shares across all of its
// parallel tasks: each task asks for a metrics shard and/or trace buffer
// under a stable string key (its launch index, representative index, ...),
// records into it privately, and the merge walks the keys in sorted order —
// so the exported files are bit-identical for every --jobs value.
//
// Files are written through the atomic-artifact path (temp file + rename)
// so a crashed run never leaves a torn metrics/trace file behind.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/trace_event.hpp"
#include "support/status.hpp"

namespace tbp::obs {

class Observation {
 public:
  /// Either side can be off; a fully-off observation hands out nulls
  /// everywhere.
  Observation(bool metrics_on, bool trace_on)
      : metrics_on_(metrics_on), trace_on_(trace_on) {}

  [[nodiscard]] bool metrics_on() const noexcept { return metrics_on_; }
  [[nodiscard]] bool trace_on() const noexcept { return trace_on_; }

  /// Returns the shard registered under `key`, creating it on first use;
  /// null when metrics are off.  Thread-safe; the returned shard itself is
  /// single-threaded and must be used by one task at a time, so keys must
  /// be unique per concurrent task (e.g. "<workload>/full/0003").
  [[nodiscard]] MetricsShard* metrics_shard(const std::string& key);

  /// Trace-side twin of metrics_shard.
  [[nodiscard]] TraceBuffer* trace_buffer(const std::string& key);

  /// Deterministic merge of every shard whose key starts with `key_prefix`
  /// (empty = all), in sorted key order.
  [[nodiscard]] MetricsSnapshot merged_metrics(
      std::string_view key_prefix = {}) const;

  /// Every buffered trace event, buffers concatenated in sorted key order.
  [[nodiscard]] std::vector<TraceEvent> merged_trace() const;

 private:
  bool metrics_on_;
  bool trace_on_;
  mutable std::mutex mutex_;
  std::map<std::string, std::unique_ptr<MetricsShard>> shards_;
  std::map<std::string, std::unique_ptr<TraceBuffer>> buffers_;
};

/// Renders a snapshot as a stable JSON document:
///   {"counters":{name:value,...},
///    "histograms":{name:{"bounds":[...],"counts":[...]},...}}
/// Names appear in sorted order, so equal snapshots render to equal bytes.
[[nodiscard]] std::string metrics_to_json(const MetricsSnapshot& snapshot);

/// Atomic write of metrics_to_json(snapshot) to `path`.
[[nodiscard]] Status write_metrics_file(const MetricsSnapshot& snapshot,
                                        const std::string& path);

/// Atomic write of the chrome://tracing document to `path`.
[[nodiscard]] Status write_trace_file(std::span<const TraceEvent> events,
                                      const std::string& path);

/// Zero-padded decimal suffix for observation keys ("0003"): string-sorted
/// keys then match numeric order, which is what keeps merges deterministic
/// AND human-readable.
[[nodiscard]] std::string key_index(std::size_t index);

}  // namespace tbp::obs
