// Low-overhead metrics: named monotonic counters and fixed-bucket
// histograms, collected into per-worker shards and merged deterministically.
//
// Design constraints (in priority order):
//
//  1. Near-zero cost when observability is off.  Observation is switched
//     on and off at run time only: recording is gated on a null check of
//     the shard/histogram pointer, so runs that did not ask for metrics pay
//     one predictable branch per (cold) recording site.
//
//  2. Determinism under --jobs.  A MetricsShard is single-threaded by
//     contract: every parallel task records into its own shard, keyed by a
//     stable task identity (launch index, representative index), never by
//     worker thread.  Merging sums counters and bucket counts — integer
//     sums commute, and shards are iterated in sorted key order — so the
//     merged snapshot is bit-identical for every jobs value and every
//     completion order.
//
//  3. Simulation results are never affected.  Metrics are pure observers:
//     nothing in this header feeds back into timing decisions, which is
//     what makes "observability on vs off produces byte-identical
//     experiment artifacts" testable (tests/obs/observation_test.cpp).
//
// Hot loops do not pay string lookups: the simulator accumulates into plain
// struct fields (SmStallStats, CacheStats, ...) and flushes them into a
// shard once per launch; only histograms are recorded through a pointer
// obtained once up front.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace tbp::obs {

/// Fixed-bucket histogram: bucket i counts values <= upper_bounds[i] (and
/// greater than the previous bound); one implicit overflow bucket counts
/// everything above the last bound.  Bounds are fixed at construction so
/// two histograms of the same metric always merge bucket-by-bucket.
class Histogram {
 public:
  Histogram() = default;
  explicit Histogram(std::vector<std::uint64_t> upper_bounds);

  void record(std::uint64_t value) noexcept;

  /// Adds `other`'s bucket counts; bounds must match (callers obtain
  /// same-named histograms with the same bounds by construction).  Returns
  /// false (and merges nothing) on a bounds mismatch.
  [[nodiscard]] bool merge(const Histogram& other) noexcept;

  [[nodiscard]] std::span<const std::uint64_t> bounds() const noexcept {
    return bounds_;
  }
  /// bounds().size() + 1 entries; the last is the overflow bucket.
  [[nodiscard]] std::span<const std::uint64_t> counts() const noexcept {
    return counts_;
  }
  [[nodiscard]] std::uint64_t total() const noexcept;

 private:
  std::vector<std::uint64_t> bounds_;
  std::vector<std::uint64_t> counts_;
};

/// One worker's private metric store.  Not thread-safe by design: a shard
/// belongs to exactly one task at a time (see the header comment).
class MetricsShard {
 public:
  /// Adds `delta` to the named monotonic counter (created at zero on first
  /// use).  Cold-path API: call once per launch/phase, not per cycle.
  void add(std::string_view name, std::uint64_t delta);

  /// Returns the named histogram, creating it with `upper_bounds` on first
  /// use.  The pointer is stable for the shard's lifetime — hot loops hold
  /// it instead of re-resolving the name.
  [[nodiscard]] Histogram* histogram(std::string_view name,
                                     std::span<const std::uint64_t> upper_bounds);

  [[nodiscard]] const std::map<std::string, std::uint64_t, std::less<>>&
  counters() const noexcept {
    return counters_;
  }
  [[nodiscard]] const std::map<std::string, Histogram, std::less<>>&
  histograms() const noexcept {
    return histograms_;
  }

 private:
  std::map<std::string, std::uint64_t, std::less<>> counters_;
  std::map<std::string, Histogram, std::less<>> histograms_;
};

/// Point-in-time merged view of any number of shards: counters summed by
/// name, histograms merged bucket-wise, both sorted by name.
struct MetricsSnapshot {
  std::vector<std::pair<std::string, std::uint64_t>> counters;
  std::vector<std::pair<std::string, Histogram>> histograms;

  [[nodiscard]] std::optional<std::uint64_t> counter(
      std::string_view name) const noexcept;
  [[nodiscard]] const Histogram* histogram_named(
      std::string_view name) const noexcept;

  /// Folds one shard into this snapshot.
  void absorb(const MetricsShard& shard);
};

}  // namespace tbp::obs
