#include "sim/sm.hpp"

#include <algorithm>
#include <bit>
#include <cassert>
#include <utility>

namespace tbp::sim {
namespace {

/// The warp context of the lowest set bit of mask word `word`.
std::uint32_t lowest_context(std::size_t word, std::uint64_t bits) noexcept {
  return static_cast<std::uint32_t>(word * 64) +
         static_cast<std::uint32_t>(std::countr_zero(bits));
}

}  // namespace

SmCore::SmCore(std::uint32_t sm_id, const GpuConfig& config, MemorySystem& memory,
               GlobalMeter& meter)
    : sm_id_(sm_id), config_(&config), memory_(&memory), meter_(&meter) {}

void SmCore::configure_launch(std::uint32_t n_slots, std::uint32_t warps_per_block) {
  assert(n_slots >= 1);
  assert(warps_per_block >= 1);
  warps_per_block_ = warps_per_block;
  free_slots_ = n_slots;
  slots_.assign(n_slots, BlockSlot{});
  warps_.assign(std::size_t{n_slots} * warps_per_block, WarpContext{});
  // Fresh contexts are all kDone; re-seed the population counts.
  state_count_.fill(0);
  state_count_[static_cast<std::size_t>(WarpState::kDone)] =
      static_cast<std::uint32_t>(warps_.size());
  ready_.assign((warps_.size() + 63) / 64, 0);
  waiting_.assign(ready_.size(), 0);
  next_wake_ = ~std::uint64_t{0};
  rr_cursor_ = 0;
  gto_current_ = ~0u;
  retired_.clear();
}

void SmCore::dispatch_block(std::uint32_t block_id, trace::BlockTrace trace) {
  assert(free_slots_ > 0);
  assert(trace.warps.size() == warps_per_block_);
  for (std::uint32_t s = 0; s < slots_.size(); ++s) {
    BlockSlot& slot = slots_[s];
    if (slot.active) continue;
    slot.active = true;
    slot.block_id = block_id;
    slot.live_warps = warps_per_block_;
    slot.barrier_waiting = 0;
    slot.dispatch_seq = dispatch_counter_++;
    slot.trace = std::move(trace);
    for (std::uint32_t w = 0; w < warps_per_block_; ++w) {
      WarpContext& ctx = warps_[token_of(s, w)];
      ctx.pc = 0;
      ctx.outstanding = 0;
      set_state(token_of(s, w), WarpState::kReady);
    }
    --free_slots_;
    return;
  }
  assert(false && "dispatch_block called with no free slot");
}

void SmCore::issue(std::uint64_t cycle) {
  if (stall_ != nullptr) {
    // SMs issue one after another, so only this SM can move the meter here.
    const std::uint64_t before = meter_->warp_insts;
    issue_impl(cycle);
    account_cycle(/*issued=*/meter_->warp_insts != before);
    return;
  }
  issue_impl(cycle);
}

void SmCore::account_cycle(bool issued) noexcept {
  if (issued) {
    ++stall_->issued_cycles;
    return;
  }
  const auto in_state = [this](WarpState s) {
    return state_count_[static_cast<std::size_t>(s)] > 0;
  };
  // No issue this cycle: attribute the bubble to the most actionable cause.
  // Memory first (the stall the paper's M distribution models), then the
  // dependence/latency wait, then barriers; an SM with no resident blocks
  // is idle regardless of leftover context states.
  if (free_slots_ == static_cast<std::uint32_t>(slots_.size())) {
    ++stall_->stall_idle;
  } else if (in_state(WarpState::kWaitMem)) {
    ++stall_->stall_memory;
  } else if (in_state(WarpState::kWaitLatency)) {
    ++stall_->stall_scoreboard;
  } else if (in_state(WarpState::kWaitBarrier)) {
    ++stall_->stall_barrier;
  } else if (in_state(WarpState::kWedged)) {
    ++stall_->stall_wedged;
  } else {
    ++stall_->stall_other;
  }
}

void SmCore::wake_expired(std::uint64_t cycle) noexcept {
  std::uint64_t next = ~std::uint64_t{0};
  for (std::size_t word = 0; word < waiting_.size(); ++word) {
    for (std::uint64_t bits = waiting_[word]; bits != 0; bits &= bits - 1) {
      const std::uint32_t idx = lowest_context(word, bits);
      const std::uint64_t ready_cycle = warps_[idx].ready_cycle;
      if (ready_cycle <= cycle) {
        set_state(idx, WarpState::kReady);
      } else {
        next = std::min(next, ready_cycle);
      }
    }
  }
  next_wake_ = next;
}

std::uint32_t SmCore::first_ready(std::uint32_t from) const noexcept {
  const auto n_contexts = static_cast<std::uint32_t>(warps_.size());
  if (from >= n_contexts) return n_contexts;
  std::size_t word = from / 64;
  std::uint64_t bits = ready_[word] & (~std::uint64_t{0} << (from % 64));
  while (bits == 0) {
    if (++word == ready_.size()) return n_contexts;
    bits = ready_[word];
  }
  return lowest_context(word, bits);
}

void SmCore::issue_impl(std::uint64_t cycle) {
  if (cycle >= next_wake_) wake_expired(cycle);
  if (state_count_[static_cast<std::size_t>(WarpState::kReady)] == 0) return;
  const auto n_contexts = static_cast<std::uint32_t>(warps_.size());

  std::uint32_t chosen = n_contexts;
  if (config_->scheduler == WarpScheduler::kGreedyThenOldest) {
    // Greedy: stick with the last-issued warp while it can issue.
    if (gto_current_ != ~0u && warps_[gto_current_].state == WarpState::kReady) {
      chosen = gto_current_;
    } else {
      // Oldest: the ready warp whose block was dispatched earliest (warp
      // index breaks ties within a block), visiting each block's first
      // ready warp only.
      std::uint64_t best_age = ~std::uint64_t{0};
      for (std::uint32_t idx = first_ready(0); idx < n_contexts;) {
        const std::uint32_t slot_idx = idx / warps_per_block_;
        if (slots_[slot_idx].dispatch_seq < best_age) {
          best_age = slots_[slot_idx].dispatch_seq;
          chosen = idx;
        }
        idx = first_ready((slot_idx + 1) * warps_per_block_);
      }
    }
  } else {
    // Loose round-robin: first ready warp after the last issued.
    chosen = first_ready(rr_cursor_);
    if (chosen == n_contexts) chosen = first_ready(0);
  }

  const std::uint32_t slot_idx = chosen / warps_per_block_;
  const std::uint32_t warp_idx = chosen % warps_per_block_;
  WarpContext& ctx = warps_[chosen];
  const auto& streams = slots_[slot_idx].trace.warps;
  if (warp_idx >= streams.size() || ctx.pc >= streams[warp_idx].size()) {
    // Malformed trace: the warp ran out of instructions without a kExit (or
    // the block shipped fewer warp streams than the kernel declares).  Park
    // it permanently instead of reading past the stream; the block can never
    // retire, so the launch-level watchdog reports the wedge as a
    // structured deadlock diagnostic rather than this being UB.
    set_state(chosen, WarpState::kWedged);
    return;
  }
  const auto& stream = streams[warp_idx];
  const trace::WarpInst& inst = stream[ctx.pc];
  ++ctx.pc;
  meter_->record(inst);
  // Advance the cursors *before* execute: a kExit that retires the block
  // invalidates gto_current_ inside retire_block, and assigning it here
  // afterwards would resurrect the stale cursor it just killed.
  rr_cursor_ = chosen + 1;
  gto_current_ = chosen;
  execute(slot_idx, warp_idx, inst, cycle);
}

void SmCore::execute(std::uint32_t slot_idx, std::uint32_t warp_idx,
                     const trace::WarpInst& inst, std::uint64_t cycle) {
  const WarpToken token = token_of(slot_idx, warp_idx);
  BlockSlot& slot = slots_[slot_idx];
  const Latencies& lat = config_->lat;

  switch (inst.op) {
    case trace::Op::kIntAlu:
      wait_until(token, cycle + lat.int_alu);
      break;
    case trace::Op::kFloatAlu:
      wait_until(token, cycle + lat.float_alu);
      break;
    case trace::Op::kSfu:
      wait_until(token, cycle + lat.sfu);
      break;
    case trace::Op::kLoadShared:
      wait_until(token, cycle + lat.shared_mem);
      break;
    case trace::Op::kLoadGlobal: {
      std::uint32_t misses = 0;
      for (std::uint32_t i = 0; i < inst.mem.n_lines; ++i) {
        const std::uint64_t line =
            inst.mem.base_line + std::uint64_t{i} * inst.mem.line_stride;
        if (!memory_->load(sm_id_, line, token, cycle)) ++misses;
      }
      if (misses == 0) {
        wait_until(token, cycle + lat.l1_hit);
      } else {
        set_state(token, WarpState::kWaitMem);
        warps_[token].outstanding = misses;
      }
      break;
    }
    case trace::Op::kStoreGlobal:
      for (std::uint32_t i = 0; i < inst.mem.n_lines; ++i) {
        const std::uint64_t line =
            inst.mem.base_line + std::uint64_t{i} * inst.mem.line_stride;
        memory_->store(sm_id_, line, cycle);
      }
      wait_until(token, cycle + lat.store_issue);
      break;
    case trace::Op::kBarrier:
      set_state(token, WarpState::kWaitBarrier);
      ++slot.barrier_waiting;
      release_barrier_if_ready(slot, slot_idx, cycle);
      break;
    case trace::Op::kExit:
      set_state(token, WarpState::kDone);
      assert(slot.live_warps > 0);
      --slot.live_warps;
      if (slot.live_warps == 0) {
        retire_block(slot_idx);
      } else {
        release_barrier_if_ready(slot, slot_idx, cycle);
      }
      break;
  }
}

void SmCore::release_barrier_if_ready(BlockSlot& slot, std::uint32_t slot_idx,
                                      std::uint64_t cycle) {
  if (slot.barrier_waiting == 0 || slot.barrier_waiting != slot.live_warps) return;
  for (std::uint32_t w = 0; w < warps_per_block_; ++w) {
    if (warps_[token_of(slot_idx, w)].state == WarpState::kWaitBarrier) {
      wait_until(token_of(slot_idx, w), cycle + 1);
    }
  }
  slot.barrier_waiting = 0;
}

void SmCore::retire_block(std::uint32_t slot_idx) {
  BlockSlot& slot = slots_[slot_idx];
  retired_.push_back(slot.block_id);
  slot.active = false;
  slot.trace = trace::BlockTrace{};  // release the trace's memory
  ++free_slots_;
  // The greedy cursor must die with the block it points into: a new block
  // dispatched into this slot re-passes the `.active` check, and a stale
  // cursor would greedy-issue the newcomer's warp ahead of older blocks
  // instead of falling back to oldest-first.
  if (gto_current_ != ~0u && gto_current_ / warps_per_block_ == slot_idx) {
    gto_current_ = ~0u;
  }
}

SmDebugState SmCore::debug_state() const {
  SmDebugState state;
  state.sm_id = sm_id_;
  for (const BlockSlot& slot : slots_) {
    if (slot.active) state.active_blocks.push_back(slot.block_id);
  }
  for (std::uint32_t idx = 0; idx < warps_.size(); ++idx) {
    if (!slots_[idx / warps_per_block_].active) continue;
    switch (warps_[idx].state) {
      case WarpState::kReady: ++state.warps_ready; break;
      case WarpState::kWaitLatency: ++state.warps_wait_latency; break;
      case WarpState::kWaitMem: ++state.warps_wait_mem; break;
      case WarpState::kWaitBarrier: ++state.warps_wait_barrier; break;
      case WarpState::kWedged: ++state.warps_wedged; break;
      case WarpState::kDone: ++state.warps_done; break;
    }
  }
  return state;
}

void SmCore::on_mem_complete(WarpToken token) {
  WarpContext& ctx = warps_[token];
  assert(ctx.outstanding > 0);
  --ctx.outstanding;
  if (ctx.outstanding == 0 && ctx.state == WarpState::kWaitMem) {
    set_state(token, WarpState::kReady);
  }
}

}  // namespace tbp::sim
