// One streaming multiprocessor: block slots, warp contexts, in-order
// round-robin issue of one warp instruction per cycle (Table V front end),
// a scoreboard-free serialized dependence model (a warp's next instruction
// issues when its previous instruction completes), block-wide barriers, and
// the load/store unit that expands coalesced footprints into line requests.
#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <vector>

#include "sim/config.hpp"
#include "sim/memory_system.hpp"
#include "trace/kernel.hpp"

namespace tbp::sim {

/// Per-SM issue/stall cycle breakdown: every simulated cycle is attributed
/// to exactly one bucket, so the buckets sum to the launch's cycle count
/// and "where did the time go" is answerable per SM (the per-interval view
/// the paper's Eq. 5 stall probabilities aggregate away).  Filled only when
/// stall accounting is enabled (see SmCore::enable_stall_accounting).
struct SmStallStats {
  std::uint64_t issued_cycles = 0;   ///< a warp instruction issued
  std::uint64_t stall_memory = 0;    ///< >=1 warp waiting on an outstanding fill
  /// Dependence wait: the serialized in-order dependence model (our
  /// scoreboard equivalent) holds every warp until its previous
  /// instruction's latency expires.
  std::uint64_t stall_scoreboard = 0;
  std::uint64_t stall_barrier = 0;   ///< all non-done warps parked at a barrier
  std::uint64_t stall_idle = 0;      ///< empty slots: no resident blocks
  std::uint64_t stall_wedged = 0;    ///< only wedged warps left (malformed trace)
  std::uint64_t stall_other = 0;     ///< none of the above (defensive bucket)

  [[nodiscard]] std::uint64_t total() const noexcept {
    return issued_cycles + stall_memory + stall_scoreboard + stall_barrier +
           stall_idle + stall_wedged + stall_other;
  }
};

/// Snapshot of one SM's scheduling state, taken by the watchdog when a
/// launch stops making forward progress.  Warp counts are per state, so a
/// deadlock diagnostic can say "2 warps parked at a barrier, 1 wedged"
/// instead of just "it hung".
struct SmDebugState {
  std::uint32_t sm_id = 0;
  std::vector<std::uint32_t> active_blocks;  ///< block ids still resident
  std::uint32_t warps_ready = 0;
  std::uint32_t warps_wait_latency = 0;
  std::uint32_t warps_wait_mem = 0;
  std::uint32_t warps_wait_barrier = 0;
  std::uint32_t warps_wedged = 0;  ///< ran past end of trace without kExit
  std::uint32_t warps_done = 0;
};

/// Machine-wide issue counters shared by all SMs, used for sampling-unit
/// metering; owned by GpuSimulator.
struct GlobalMeter {
  std::uint64_t warp_insts = 0;
  std::uint64_t thread_insts = 0;
  /// Basic-block histogram of the current fixed-size unit (empty when fixed
  /// units are disabled).
  std::vector<std::uint32_t> fixed_unit_bbv;

  void record(const trace::WarpInst& inst) noexcept {
    ++warp_insts;
    thread_insts += inst.active_threads;
    if (!fixed_unit_bbv.empty()) ++fixed_unit_bbv[inst.bb_id];
  }
};

class SmCore {
 public:
  SmCore(std::uint32_t sm_id, const GpuConfig& config, MemorySystem& memory,
         GlobalMeter& meter);

  /// Sets per-launch geometry: block slots (SM occupancy) and warps/block.
  void configure_launch(std::uint32_t n_slots, std::uint32_t warps_per_block);

  [[nodiscard]] bool has_free_slot() const noexcept { return free_slots_ > 0; }
  [[nodiscard]] bool idle() const noexcept {
    return free_slots_ == static_cast<std::uint32_t>(slots_.size());
  }

  /// Dispatches a block into a free slot; its warps issue from this cycle.
  void dispatch_block(std::uint32_t block_id, trace::BlockTrace trace);

  /// Issues at most one warp instruction this cycle.
  void issue(std::uint64_t cycle);

  /// Attaches per-cycle issue/stall-cause accounting writing into `out`
  /// (null detaches).  `out` must outlive the SM or the next call.  When
  /// detached, the only cost is one null check per cycle.
  void enable_stall_accounting(SmStallStats* out) noexcept {
    stall_ = out;
  }

  /// One of `token`'s line fills arrived.  Completions are delivered after
  /// the cycle's issue phase, so a warp woken here issues next cycle at the
  /// earliest.
  void on_mem_complete(WarpToken token);

  /// Blocks that retired since the last drain (in retirement order).
  [[nodiscard]] std::vector<std::uint32_t>& retired() noexcept { return retired_; }

  [[nodiscard]] std::uint64_t warp_insts() const noexcept { return warp_insts_; }
  [[nodiscard]] std::uint64_t thread_insts() const noexcept { return thread_insts_; }

  /// Scheduling-state snapshot for deadlock diagnostics (cheap: one pass
  /// over the warp contexts; called only when the watchdog fires).
  [[nodiscard]] SmDebugState debug_state() const;

 private:
  enum class WarpState : std::uint8_t {
    kReady,
    kWaitLatency,  ///< ready at ready_cycle
    kWaitMem,      ///< outstanding line fills > 0
    kWaitBarrier,
    kWedged,  ///< malformed trace: ran out of instructions without kExit
    kDone,
  };

  struct WarpContext {
    std::uint32_t pc = 0;
    WarpState state = WarpState::kDone;
    std::uint64_t ready_cycle = 0;
    std::uint32_t outstanding = 0;
  };

  struct BlockSlot {
    bool active = false;
    std::uint32_t block_id = 0;
    std::uint32_t live_warps = 0;
    std::uint32_t barrier_waiting = 0;
    std::uint64_t dispatch_seq = 0;  ///< age for greedy-then-oldest issue
    trace::BlockTrace trace;
  };

  [[nodiscard]] WarpToken token_of(std::uint32_t slot, std::uint32_t warp)
      const noexcept {
    return slot * warps_per_block_ + warp;
  }

  /// Every warp-state transition funnels through here so the per-state
  /// population counts and the Ready and latency-wait masks stay exact.
  void set_state(std::uint32_t idx, WarpState next) noexcept {
    WarpContext& ctx = warps_[idx];
    --state_count_[static_cast<std::size_t>(ctx.state)];
    ++state_count_[static_cast<std::size_t>(next)];
    const std::size_t word = idx / 64;
    const std::uint64_t bit = std::uint64_t{1} << (idx % 64);
    if (ctx.state == WarpState::kReady) ready_[word] &= ~bit;
    if (ctx.state == WarpState::kWaitLatency) waiting_[word] &= ~bit;
    if (next == WarpState::kReady) ready_[word] |= bit;
    if (next == WarpState::kWaitLatency) waiting_[word] |= bit;
    ctx.state = next;
  }

  /// Parks warp context `idx` in a latency wait that expires at `ready_cycle`.
  void wait_until(std::uint32_t idx, std::uint64_t ready_cycle) noexcept {
    set_state(idx, WarpState::kWaitLatency);
    warps_[idx].ready_cycle = ready_cycle;
    next_wake_ = std::min(next_wake_, ready_cycle);
  }

  void issue_impl(std::uint64_t cycle);
  void account_cycle(bool issued) noexcept;
  /// Turns every latency wait that has expired by `cycle` into Ready.
  void wake_expired(std::uint64_t cycle) noexcept;
  /// The first Ready context at or after `from`, or the context count.
  [[nodiscard]] std::uint32_t first_ready(std::uint32_t from) const noexcept;

  void execute(std::uint32_t slot_idx, std::uint32_t warp_idx,
               const trace::WarpInst& inst, std::uint64_t cycle);
  void release_barrier_if_ready(BlockSlot& slot, std::uint32_t slot_idx,
                                std::uint64_t cycle);
  void retire_block(std::uint32_t slot_idx);

  std::uint32_t sm_id_;
  const GpuConfig* config_;
  MemorySystem* memory_;
  GlobalMeter* meter_;

  std::uint32_t warps_per_block_ = 0;
  std::uint32_t free_slots_ = 0;
  std::vector<BlockSlot> slots_;
  std::vector<WarpContext> warps_;  ///< slots * warps_per_block, slot-major
  /// One bit per warp context, 64 contexts to a word: the kReady contexts
  /// and the kWaitLatency contexts.  Only an active slot holds either
  /// state, since a block retires only when all its warps are kDone.
  std::vector<std::uint64_t> ready_;
  std::vector<std::uint64_t> waiting_;
  /// No latency wait expires before this cycle: at most the earliest
  /// ready_cycle of the kWaitLatency contexts.
  std::uint64_t next_wake_ = ~std::uint64_t{0};
  std::uint32_t rr_cursor_ = 0;     ///< round-robin search start
  std::uint32_t gto_current_ = ~0u; ///< last-issued warp for GTO
  std::uint64_t dispatch_counter_ = 0;
  std::vector<std::uint32_t> retired_;

  std::uint64_t warp_insts_ = 0;
  std::uint64_t thread_insts_ = 0;

  /// Warp-context population per WarpState (6 states), maintained
  /// incrementally by set_state so stalled cycles classify in O(1) instead
  /// of O(warps).  Counts cover all contexts; only active slots ever hold
  /// non-kDone states, so the wait counts are exact for classification.
  std::array<std::uint32_t, 6> state_count_{};
  SmStallStats* stall_ = nullptr;  ///< null = accounting off
};

}  // namespace tbp::sim
