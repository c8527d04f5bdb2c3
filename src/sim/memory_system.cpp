#include "sim/memory_system.hpp"

#include <algorithm>
#include <cassert>
#include <cstddef>

namespace tbp::sim {
namespace {

/// The overflow-retry window: each cycle an SM retries at most this many
/// loads from the front of its overflow queue, and entries that still find
/// every MSHR busy rotate to the back.  The window is part of the model: it
/// decides which waiting load takes a freed MSHR, and so every later cycle.
/// A pass that can only rotate the window is not probed at all (see
/// `retry_overflow`).
constexpr std::size_t kOverflowRetryBudget = 64;

}  // namespace

MemorySystem::MemorySystem(const GpuConfig& config)
    : config_(config), l2_(config.l2), dram_(config), l2_mshr_(config.l2_mshrs) {
  ports_.reserve(config.n_sms);
  for (std::uint32_t s = 0; s < config.n_sms; ++s) {
    ports_.emplace_back(config.l1, config.l1_mshrs);
  }
}

bool MemorySystem::load(std::uint32_t sm_id, std::uint64_t line, WarpToken token,
                        std::uint64_t cycle) {
  SmPort& port = ports_[sm_id];
  if (port.l1.access(line)) return true;

  if (std::vector<WarpToken>* waiters = port.mshr.find(line)) {
    waiters->push_back(token);
    ++port.mshr_merges;
    return false;
  }
  if (port.mshr.size() >= config_.l1_mshrs) {
    ++port.mshr_stalls;
    port.settle();
    port.overflow.push_back(TimedRequest{
        .ready = cycle, .line = line, .sm_id = sm_id, .token = token});
    ++port.queued[line];
    return false;
  }
  port.mshr.insert(line).push_back(token);
  port.ready += port.queued_of(line);
  emit_request(line, sm_id, /*is_store=*/false, cycle);
  return false;
}

void MemorySystem::store(std::uint32_t sm_id, std::uint64_t line,
                         std::uint64_t cycle) {
  SmPort& port = ports_[sm_id];
  // Write-through no-allocate: refresh LRU if present, always forward.
  if (port.l1.contains(line)) (void)port.l1.access(line);
  emit_request(line, sm_id, /*is_store=*/true, cycle);
}

void MemorySystem::emit_request(std::uint64_t line, std::uint32_t sm_id,
                                bool is_store, std::uint64_t cycle) {
  l2_queue_.push_back(TimedRequest{
      .ready = cycle + config_.lat.interconnect,
      .line = line,
      .sm_id = sm_id,
      .is_store = is_store,
  });
}

void MemorySystem::process_l2(std::uint64_t cycle) {
  for (std::uint32_t port = 0; port < config_.l2_ports; ++port) {
    if (l2_queue_.empty() || l2_queue_.front().ready > cycle) break;
    const TimedRequest req = l2_queue_.front();
    l2_queue_.pop_front();

    if (req.is_store) {
      if (l2_.contains(req.line)) {
        (void)l2_.access(req.line);  // write-through update
      } else {
        dram_.push(req.line, /*is_store=*/true, cycle);
      }
      continue;
    }

    if (l2_.access(req.line)) {
      l1_fills_.push_back(TimedFill{
          .ready = cycle + config_.lat.l2_hit + config_.lat.interconnect,
          .line = req.line,
          .sm_id = req.sm_id,
      });
      continue;
    }
    if (std::vector<std::uint32_t>* waiters = l2_mshr_.find(req.line)) {
      waiters->push_back(req.sm_id);
      ++l2_mshr_merges_;
      continue;
    }
    // The L2 MSHR count is a capacity knob rather than a hard structural
    // hazard here: overflowing requests are still accepted (they would
    // otherwise need a second overflow queue) but counted, so configs that
    // undersize the MSHRs are visible in stats.
    if (l2_mshr_.size() >= config_.l2_mshrs) ++l2_mshr_overflows_;
    l2_mshr_.insert(req.line).push_back(req.sm_id);
    dram_.push(req.line, /*is_store=*/false, cycle);
  }
}

void MemorySystem::process_dram_replies(std::uint64_t cycle) {
  dram_replies_scratch_.clear();
  dram_.tick(cycle, dram_replies_scratch_);
  for (const DramReply& reply : dram_replies_scratch_) {
    l2_.fill(reply.line);
    const std::vector<std::uint32_t>* waiters = l2_mshr_.find(reply.line);
    assert(waiters != nullptr);
    for (std::uint32_t sm_id : *waiters) {
      l1_fills_.push_back(TimedFill{
          .ready = cycle + config_.lat.l2_hit + config_.lat.interconnect,
          .line = reply.line,
          .sm_id = sm_id,
      });
    }
    l2_mshr_.erase(reply.line);
  }
}

void MemorySystem::apply_fill(SmPort& port, std::uint32_t sm_id,
                              std::uint64_t line,
                              std::vector<MemCompletion>& completions) {
  // `line` moves from the MSHR table to the L1, so its queued entries stay
  // ready; the victim's leave both.
  if (const auto victim = port.l1.fill(line)) port.ready -= port.queued_of(*victim);
  const std::vector<WarpToken>* waiters = port.mshr.find(line);
  assert(waiters != nullptr);
  for (WarpToken token : *waiters) {
    completions.push_back(MemCompletion{.sm_id = sm_id, .token = token});
  }
  port.mshr.erase(line);
}

void MemorySystem::deliver_l1_fills(std::uint64_t cycle,
                                    std::vector<MemCompletion>& completions) {
  while (!l1_fills_.empty() && l1_fills_.front().ready <= cycle) {
    const TimedFill fill = l1_fills_.front();
    l1_fills_.pop_front();
    apply_fill(ports_[fill.sm_id], fill.sm_id, fill.line, completions);
  }
}

void MemorySystem::SmPort::settle() {
  if (owed_rotation == 0) return;
  std::rotate(overflow.begin(),
              overflow.begin() + static_cast<std::ptrdiff_t>(owed_rotation),
              overflow.end());
  owed_rotation = 0;
}

std::uint32_t MemorySystem::SmPort::unqueue(std::uint64_t line) {
  auto it = queued.find(line);
  assert(it != queued.end());
  const std::uint32_t left = --it->second;
  if (left == 0) queued.erase(it);
  return left;
}

std::uint32_t MemorySystem::SmPort::queued_of(std::uint64_t line) const {
  if (queued.empty()) return 0;
  const auto it = queued.find(line);
  return it == queued.end() ? 0 : it->second;
}

// Probes the window front to back.  Once `retry_blocked` holds, every
// unprobed entry of the window would find every MSHR busy and rotate to the
// back, so the rest of the window is owed as a rotation instead of probed;
// nothing in a pass frees an MSHR, so it holds to the end of the pass.
void MemorySystem::retry_overflow(SmPort& port, std::uint64_t cycle) {
  std::size_t n = std::min(port.overflow.size(), kOverflowRetryBudget);
  if (!retry_blocked(port)) port.settle();
  for (; n > 0 && !retry_blocked(port); --n) {
    const TimedRequest req = port.overflow.front();
    port.overflow.pop_front();
    // The line may have been filled while this request waited; probe again.
    // A hit here completes directly next cycle: the waiter must NOT be
    // re-registered in the MSHR table (no fill is outstanding for it), since
    // that would bypass the capacity check and a synthetic fill erasing the
    // entry would collide with an in-flight fill — or a second hit-path
    // retry — for the same line, dropping waiters.
    if (port.l1.contains(req.line)) {
      (void)port.l1.access(req.line);
      port.hit_wait.push_back(TimedWakeup{.ready = cycle + 1, .token = req.token});
      (void)port.unqueue(req.line);
      --port.ready;
      continue;
    }
    if (std::vector<WarpToken>* waiters = port.mshr.find(req.line)) {
      waiters->push_back(req.token);
      ++port.mshr_merges;
      (void)port.unqueue(req.line);
      --port.ready;
      continue;
    }
    if (port.mshr.size() >= config_.l1_mshrs) {
      port.overflow.push_back(req);  // still full; retry next cycle
      continue;
    }
    port.mshr.insert(req.line).push_back(req.token);
    port.ready += port.unqueue(req.line);
    emit_request(req.line, req.sm_id, /*is_store=*/false, cycle);
  }
  if (n > 0) port.owed_rotation = (port.owed_rotation + n) % port.overflow.size();
}

void MemorySystem::drain_hit_waits(SmPort& port, std::uint32_t sm_id,
                                   std::uint64_t cycle,
                                   std::vector<MemCompletion>& completions) {
  while (!port.hit_wait.empty() && port.hit_wait.front().ready <= cycle) {
    completions.push_back(
        MemCompletion{.sm_id = sm_id, .token = port.hit_wait.front().token});
    port.hit_wait.pop_front();
  }
}

void MemorySystem::tick(std::uint64_t cycle, std::vector<MemCompletion>& completions) {
  for (std::uint32_t s = 0; s < static_cast<std::uint32_t>(ports_.size()); ++s) {
    if (!ports_[s].overflow.empty()) retry_overflow(ports_[s], cycle);
  }
  process_l2(cycle);
  process_dram_replies(cycle);
  deliver_l1_fills(cycle, completions);
  for (std::uint32_t s = 0; s < static_cast<std::uint32_t>(ports_.size()); ++s) {
    drain_hit_waits(ports_[s], s, cycle, completions);
  }
}

bool MemorySystem::busy() const noexcept {
  if (!l2_queue_.empty() || !l1_fills_.empty()) return true;
  if (!l2_mshr_.empty()) return true;
  for (const SmPort& port : ports_) {
    if (!port.mshr.empty() || !port.overflow.empty() ||
        !port.hit_wait.empty()) {
      return true;
    }
  }
  return dram_.busy();
}

MemoryStats MemorySystem::stats() const {
  MemoryStats out;
  for (const SmPort& port : ports_) {
    out.l1.hits += port.l1.stats().hits;
    out.l1.misses += port.l1.stats().misses;
    out.l1.evictions += port.l1.stats().evictions;
    out.l1_mshr_merges += port.mshr_merges;
    out.l1_mshr_stalls += port.mshr_stalls;
  }
  out.l2 = l2_.stats();
  out.dram = dram_.aggregate_stats();
  out.l2_mshr_merges = l2_mshr_merges_;
  out.l2_mshr_overflows = l2_mshr_overflows_;
  return out;
}

}  // namespace tbp::sim
