// DRAM model: 6 channels x 16 banks with per-bank row buffers and FR-FCFS
// scheduling (Table V).
//
// Consecutive lines stripe across channels; within a channel, consecutive
// 2 KB pages stripe across banks.  Requests queue per bank.  Each cycle a
// channel may start at most one request (command-bus limit): among banks
// that are idle, the scheduler prefers the oldest row-buffer hit found in a
// bounded window of each bank's queue, falling back to the oldest
// head-of-queue request (FR-FCFS).  Completion is serialized on the channel
// data bus, so saturated channels develop the queuing delays that make the
// stall latency M a random variable — the physical effect the paper's
// Markov model is built around.
#pragma once

#include <algorithm>
#include <cstdint>
#include <deque>
#include <vector>

#include "obs/metrics.hpp"
#include "sim/config.hpp"

namespace tbp::sim {

struct DramRequest {
  std::uint64_t line = 0;
  bool is_store = false;
  std::uint64_t arrival = 0;
};

/// A completed load; `line` identifies the L2 MSHR entry to fill.
struct DramReply {
  std::uint64_t line = 0;
  std::uint64_t ready = 0;
};

struct DramStats {
  std::uint64_t row_hits = 0;
  std::uint64_t row_misses = 0;
  std::uint64_t loads = 0;
  std::uint64_t stores = 0;
  std::uint64_t scheduling_decisions = 0;

  [[nodiscard]] double row_hit_rate() const noexcept {
    const std::uint64_t total = row_hits + row_misses;
    return total == 0 ? 0.0
                      : static_cast<double>(row_hits) / static_cast<double>(total);
  }
};

class DramChannel {
 public:
  explicit DramChannel(const GpuConfig& config);

  void push(const DramRequest& request);

  /// Advances one cycle: possibly starts one request, and appends any loads
  /// whose data is ready at `cycle` to `replies`.
  void tick(std::uint64_t cycle, std::vector<DramReply>& replies);

  [[nodiscard]] bool busy() const noexcept {
    return queued_ > 0 || !pending_.empty();
  }
  [[nodiscard]] const DramStats& stats() const noexcept { return stats_; }

  /// Attaches a queue-depth histogram sampled once per FR-FCFS scheduling
  /// decision (null detaches); channels of one simulator share one
  /// histogram.
  void set_queue_depth_histogram(obs::Histogram* hist) noexcept {
    queue_depth_hist_ = hist;
  }

 private:
  struct Bank {
    std::deque<DramRequest> queue;
    std::uint64_t open_row = 0;
    bool row_valid = false;
    std::uint64_t busy_until = 0;
  };

  [[nodiscard]] std::uint32_t bank_of(std::uint64_t line) const noexcept {
    return static_cast<std::uint32_t>(line / page_lines_ % banks_.size());
  }
  [[nodiscard]] std::uint64_t row_of(std::uint64_t line) const noexcept {
    return line / row_lines_;
  }
  /// The first cycle at which a non-empty `bank` can start its head.
  [[nodiscard]] static std::uint64_t eligible_at(const Bank& bank) noexcept {
    return std::max(bank.busy_until, bank.queue.front().arrival);
  }

  DramTiming timing_;  ///< a copy: callers may pass a temporary config
  std::uint64_t page_lines_;  ///< n_channels * lines per page: one bank step
  std::uint64_t row_lines_;   ///< page_lines_ * banks: one row step
  std::vector<Bank> banks_;
  std::uint64_t queued_ = 0;  ///< total requests across bank queues
  std::uint64_t bus_free_at_ = 0;
  /// No bank with queued work can start before this cycle, so `tick` scans
  /// the banks only from then on (DESIGN.md "DRAM scheduling").
  std::uint64_t next_eligible_ = ~std::uint64_t{0};
  /// In-flight loads in completion order: the data bus serializes them.
  std::deque<DramReply> pending_;
  DramStats stats_;
  obs::Histogram* queue_depth_hist_ = nullptr;
};

/// All channels; routes by line number.
class DramSystem {
 public:
  explicit DramSystem(const GpuConfig& config);

  void push(std::uint64_t line, bool is_store, std::uint64_t cycle);
  void tick(std::uint64_t cycle, std::vector<DramReply>& replies);

  [[nodiscard]] bool busy() const noexcept;
  [[nodiscard]] DramStats aggregate_stats() const noexcept;

  /// Forwards to every channel (they share the one histogram).
  void set_queue_depth_histogram(obs::Histogram* hist) noexcept;

 private:
  std::uint32_t n_channels_;
  std::vector<DramChannel> channels_;
};

}  // namespace tbp::sim
