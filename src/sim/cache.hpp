// Set-associative cache tag array with true-LRU replacement.
//
// Only tags are modeled (trace-driven simulation carries no data).  Lines
// are identified by 64-bit line numbers (byte address / 128); the set index
// is the low bits of the line number.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "sim/config.hpp"

namespace tbp::sim {

struct CacheStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t evictions = 0;  ///< fills that displaced a valid line

  [[nodiscard]] double hit_rate() const noexcept {
    const std::uint64_t total = hits + misses;
    return total == 0 ? 0.0 : static_cast<double>(hits) / static_cast<double>(total);
  }
};

class SetAssocCache {
 public:
  explicit SetAssocCache(const CacheGeometry& geometry);

  /// Probe-and-update: on hit, refreshes LRU and returns true; on miss,
  /// returns false without allocating (allocation is a separate `fill` so
  /// write-through no-allocate stores and MSHR-deferred fills are
  /// expressible).
  [[nodiscard]] bool access(std::uint64_t line) noexcept;

  /// Read-only probe: no LRU update, no stats.
  [[nodiscard]] bool contains(std::uint64_t line) const noexcept;

  /// Installs `line`, evicting the LRU way of its set if needed.  Returns
  /// the evicted line, or nothing when an invalid way took `line` or `line`
  /// was already present.
  std::optional<std::uint64_t> fill(std::uint64_t line) noexcept;

  [[nodiscard]] const CacheStats& stats() const noexcept { return stats_; }

 private:
  struct Way {
    std::uint64_t tag = 0;
    std::uint64_t last_use = 0;
    bool valid = false;
  };

  [[nodiscard]] std::uint32_t set_of(std::uint64_t line) const noexcept {
    return static_cast<std::uint32_t>(line) & (n_sets_ - 1);
  }

  std::uint32_t n_sets_;
  std::uint32_t associativity_;
  std::uint64_t use_clock_ = 0;
  std::vector<Way> ways_;  ///< n_sets * associativity, set-major
  CacheStats stats_;
};

}  // namespace tbp::sim
