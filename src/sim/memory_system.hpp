// The full memory hierarchy: per-SM L1s, a shared L2, and DRAM, glued with
// MSHRs and latency-stamped queues.
//
// Loads: L1 probe at issue.  Hits are handled by the SM (fixed l1_hit
// latency).  Misses allocate or merge into an L1 MSHR; a new miss travels
// over the interconnect to the L2 input queue, probes L2 (bounded ports per
// cycle), and on an L2 miss allocates/merges an L2 MSHR and enters a DRAM
// channel queue.  Fills propagate back L2 -> L1 -> warp wakeup tokens.
//
// Stores: write-through, no-allocate at both levels; they consume L2 port
// and DRAM bandwidth but never produce completions (the warp does not wait).
//
// Everything one SM touches on its own — L1, L1 MSHRs, the overflow retry
// queue, hit-after-wait wakeups — lives in a per-SM port; the L2 input
// queue, L2, L2 MSHRs, DRAM and the L1 fill queue are shared.
#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>
#include <unordered_map>
#include <vector>

#include "sim/cache.hpp"
#include "sim/config.hpp"
#include "sim/dram.hpp"
#include "sim/line_table.hpp"

namespace tbp::sim {

/// Opaque token identifying the (SM, block slot, warp) that issued a load.
using WarpToken = std::uint32_t;

struct MemCompletion {
  std::uint32_t sm_id = 0;
  WarpToken token = 0;
};

struct MemoryStats {
  CacheStats l1;  ///< aggregated over SMs
  CacheStats l2;
  DramStats dram;
  std::uint64_t l1_mshr_merges = 0;
  std::uint64_t l2_mshr_merges = 0;
  std::uint64_t l1_mshr_stalls = 0;  ///< requests that waited for a free MSHR
  /// Requests that found every L2 MSHR busy.  The L2 MSHR count is a
  /// capacity knob rather than a hard structural hazard (overflowing
  /// requests are still accepted), so this counter is how an undersized
  /// l2_mshrs config becomes visible in stats.
  std::uint64_t l2_mshr_overflows = 0;
};

class MemorySystem {
 public:
  explicit MemorySystem(const GpuConfig& config);

  /// Issues one line-sized load.  Returns true on an L1 hit (the SM applies
  /// its fixed hit latency); on a miss the `token` is woken through
  /// `tick`'s completion list once the fill returns.
  [[nodiscard]] bool load(std::uint32_t sm_id, std::uint64_t line, WarpToken token,
                          std::uint64_t cycle);

  /// Issues one line-sized write-through store (fire and forget).
  void store(std::uint32_t sm_id, std::uint64_t line, std::uint64_t cycle);

  /// Advances one cycle; appends warp wakeups to `completions`.
  void tick(std::uint64_t cycle, std::vector<MemCompletion>& completions);

  /// True while any request is in flight anywhere in the hierarchy.
  [[nodiscard]] bool busy() const noexcept;

  [[nodiscard]] MemoryStats stats() const;

  /// Attaches the DRAM FR-FCFS queue-depth histogram (see DramChannel).
  void set_queue_depth_histogram(obs::Histogram* hist) noexcept {
    dram_.set_queue_depth_histogram(hist);
  }

 private:
  struct TimedRequest {
    std::uint64_t ready = 0;
    std::uint64_t line = 0;
    std::uint32_t sm_id = 0;
    WarpToken token = 0;  ///< loads only
    bool is_store = false;
  };
  /// A hit-after-wait wakeup: an overflowed load whose line was already in
  /// the L1 when it retried.  It completes directly (next cycle) without
  /// ever touching the MSHR table — re-registering there would bypass the
  /// capacity check and collide with in-flight fills for the same line.
  struct TimedWakeup {
    std::uint64_t ready = 0;
    WarpToken token = 0;
  };
  /// One fill scheduled for delivery into an SM's L1.  Every fill is stamped
  /// `cycle + l2_hit + interconnect`, so `l1_fills_` is in `ready` order.
  struct TimedFill {
    std::uint64_t ready = 0;
    std::uint64_t line = 0;
    std::uint32_t sm_id = 0;
  };

  /// Everything one SM touches on its own: its L1, its MSHRs, its overflow
  /// retry queue, its hit-after-wait wakeups, and its slice of the MSHR
  /// counters.
  struct SmPort {
    SmPort(const CacheGeometry& l1_geometry, std::uint32_t n_mshrs)
        : l1(l1_geometry), mshr(n_mshrs) {}

    /// Applies `owed_rotation` to `overflow`.
    void settle();
    /// Removes one overflowed entry of `line` from `queued`; returns how
    /// many entries of `line` are still queued.
    std::uint32_t unqueue(std::uint64_t line);
    /// Overflowed entries of `line`.
    [[nodiscard]] std::uint32_t queued_of(std::uint64_t line) const;

    SetAssocCache l1;
    LineTable<WarpToken> mshr;  ///< at most l1_mshrs lines
    std::deque<TimedRequest> overflow;
    /// Overflowed entries per line.
    std::unordered_map<std::uint64_t, std::uint32_t> queued;
    /// Overflowed entries whose line is in `l1` or `mshr` (never both), so
    /// that a retry would hit or merge.
    std::size_t ready = 0;
    /// Entries owed a move from the front of `overflow` to its back by
    /// retry passes that did not probe them.
    std::size_t owed_rotation = 0;
    std::deque<TimedWakeup> hit_wait;
    std::uint64_t mshr_merges = 0;
    std::uint64_t mshr_stalls = 0;
  };

  void emit_request(std::uint64_t line, std::uint32_t sm_id, bool is_store,
                    std::uint64_t cycle);
  void process_l2(std::uint64_t cycle);
  void process_dram_replies(std::uint64_t cycle);
  void deliver_l1_fills(std::uint64_t cycle, std::vector<MemCompletion>& completions);
  void apply_fill(SmPort& port, std::uint32_t sm_id, std::uint64_t line,
                  std::vector<MemCompletion>& completions);
  void retry_overflow(SmPort& port, std::uint64_t cycle);
  /// True when a retry pass could only rotate `port`'s overflow queue:
  /// every MSHR is busy and no queued line is resident.
  [[nodiscard]] bool retry_blocked(const SmPort& port) const noexcept {
    return port.ready == 0 && port.mshr.size() >= config_.l1_mshrs;
  }
  void drain_hit_waits(SmPort& port, std::uint32_t sm_id, std::uint64_t cycle,
                       std::vector<MemCompletion>& completions);

  const GpuConfig config_;
  std::vector<SmPort> ports_;  ///< one per SM
  SetAssocCache l2_;
  DramSystem dram_;

  std::deque<TimedRequest> l2_queue_;  ///< arrival-ordered (uniform latency)
  LineTable<std::uint32_t> l2_mshr_;   ///< waiting SM ids; may exceed l2_mshrs

  std::deque<TimedFill> l1_fills_;
  std::vector<DramReply> dram_replies_scratch_;
  std::uint64_t l2_mshr_merges_ = 0;
  std::uint64_t l2_mshr_overflows_ = 0;
};

}  // namespace tbp::sim
