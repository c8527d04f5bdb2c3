#include "sim/memory_system.hpp"

#include <gtest/gtest.h>

#include <ostream>
#include <vector>

namespace tbp::sim {
namespace {

GpuConfig config() { return fermi_config(); }

/// One load completion: the cycle whose `tick` returned it, its SM and its
/// token.
struct Completion {
  std::uint64_t cycle = 0;
  std::uint32_t sm = 0;
  WarpToken token = 0;
  bool operator==(const Completion&) const = default;
};

std::ostream& operator<<(std::ostream& os, const Completion& c) {
  return os << "{" << c.cycle << ", " << c.sm << ", " << c.token << "}";
}

/// Every counter of `MemoryStats`, in declaration order.
std::vector<std::uint64_t> stat_fields(const MemoryStats& s) {
  return {s.l1.hits,       s.l1.misses,         s.l1.evictions,
          s.l2.hits,       s.l2.misses,         s.l2.evictions,
          s.dram.row_hits, s.dram.row_misses,   s.dram.loads,
          s.dram.stores,   s.dram.scheduling_decisions,
          s.l1_mshr_merges, s.l2_mshr_merges,   s.l1_mshr_stalls,
          s.l2_mshr_overflows};
}

/// Advances the memory system until `n` completions arrive.
std::vector<MemCompletion> drain(MemorySystem& memory, std::size_t n,
                                 std::uint64_t start = 1,
                                 std::uint64_t max_cycles = 100000) {
  std::vector<MemCompletion> out;
  for (std::uint64_t c = start; c < start + max_cycles && out.size() < n; ++c) {
    memory.tick(c, out);
  }
  return out;
}

TEST(MemorySystemTest, ColdLoadMissesAndCompletes) {
  MemorySystem memory(config());
  EXPECT_FALSE(memory.load(0, 100, /*token=*/7, /*cycle=*/0));
  const auto completions = drain(memory, 1);
  ASSERT_EQ(completions.size(), 1u);
  EXPECT_EQ(completions[0].sm_id, 0u);
  EXPECT_EQ(completions[0].token, 7u);
  EXPECT_FALSE(memory.busy());
}

TEST(MemorySystemTest, SecondLoadHitsL1AfterFill) {
  MemorySystem memory(config());
  (void)memory.load(0, 100, 1, 0);
  (void)drain(memory, 1);
  EXPECT_TRUE(memory.load(0, 100, 2, 5000));
  EXPECT_EQ(memory.stats().l1.hits, 1u);
}

TEST(MemorySystemTest, MshrMergesSameLine) {
  MemorySystem memory(config());
  EXPECT_FALSE(memory.load(0, 100, 1, 0));
  EXPECT_FALSE(memory.load(0, 100, 2, 0));
  EXPECT_FALSE(memory.load(0, 100, 3, 0));
  const auto completions = drain(memory, 3);
  // One fill wakes all three waiters; only one DRAM load happened.
  ASSERT_EQ(completions.size(), 3u);
  EXPECT_EQ(memory.stats().l1_mshr_merges, 2u);
  EXPECT_EQ(memory.stats().dram.loads, 1u);
}

TEST(MemorySystemTest, CrossSmLoadsShareL2Fill) {
  MemorySystem memory(config());
  EXPECT_FALSE(memory.load(0, 100, 1, 0));
  EXPECT_FALSE(memory.load(1, 100, 1, 0));
  const auto completions = drain(memory, 2);
  ASSERT_EQ(completions.size(), 2u);
  // Both SMs got woken, but DRAM saw a single load (merged in L2 MSHR).
  EXPECT_EQ(memory.stats().dram.loads, 1u);
  EXPECT_EQ(memory.stats().l2_mshr_merges, 1u);
}

TEST(MemorySystemTest, L2HitIsFasterThanDram) {
  MemorySystem memory(config());
  // SM 0 warms the line into L2 (and its own L1).
  (void)memory.load(0, 100, 1, 0);
  std::vector<MemCompletion> out;
  std::uint64_t first_done = 0;
  for (std::uint64_t c = 1; c < 100000 && out.empty(); ++c) {
    memory.tick(c, out);
    first_done = c;
  }
  // SM 1 misses its L1 but hits L2.
  out.clear();
  const std::uint64_t start = first_done + 10;
  EXPECT_FALSE(memory.load(1, 100, 2, start));
  std::uint64_t second_done = 0;
  for (std::uint64_t c = start + 1; c < start + 100000 && out.empty(); ++c) {
    memory.tick(c, out);
    second_done = c;
  }
  EXPECT_LT(second_done - start, first_done);  // L2 hit beats full DRAM trip
  EXPECT_EQ(memory.stats().l2.hits, 1u);
}

TEST(MemorySystemTest, StoresProduceNoCompletions) {
  MemorySystem memory(config());
  memory.store(0, 100, 0);
  memory.store(0, 200, 0);
  const auto completions = drain(memory, 1, 1, 5000);
  EXPECT_TRUE(completions.empty());
  EXPECT_EQ(memory.stats().dram.stores, 2u);
  EXPECT_FALSE(memory.busy());
}

TEST(MemorySystemTest, StoreToCachedL2LineStopsAtL2) {
  MemorySystem memory(config());
  (void)memory.load(0, 100, 1, 0);
  (void)drain(memory, 1);
  const std::uint64_t dram_before = memory.stats().dram.stores;
  memory.store(0, 100, 6000);
  (void)drain(memory, 1, 6001, 2000);
  EXPECT_EQ(memory.stats().dram.stores, dram_before);  // absorbed by L2
}

TEST(MemorySystemTest, MshrOverflowStillCompletesEverything) {
  GpuConfig small = config();
  small.l1_mshrs = 4;
  MemorySystem memory(small);
  // 32 distinct lines from one SM: 4 in MSHRs, 28 queued in overflow.
  for (std::uint32_t i = 0; i < 32; ++i) {
    EXPECT_FALSE(memory.load(0, 1000 + i, i, 0));
  }
  EXPECT_GT(memory.stats().l1_mshr_stalls, 0u);
  const auto completions = drain(memory, 32);
  EXPECT_EQ(completions.size(), 32u);
  EXPECT_FALSE(memory.busy());
}

TEST(MemorySystemTest, BusyReflectsInFlightWork) {
  MemorySystem memory(config());
  EXPECT_FALSE(memory.busy());
  (void)memory.load(0, 1, 1, 0);
  EXPECT_TRUE(memory.busy());
  (void)drain(memory, 1);
  EXPECT_FALSE(memory.busy());
}

TEST(MemorySystemTest, CompletionLatencyIncludesInterconnectBothWays) {
  const GpuConfig cfg = config();
  MemorySystem memory(cfg);
  (void)memory.load(0, 0, 1, 0);
  std::vector<MemCompletion> out;
  std::uint64_t done = 0;
  for (std::uint64_t c = 1; c < 100000 && out.empty(); ++c) {
    memory.tick(c, out);
    done = c;
  }
  // Round trip >= interconnect out + DRAM row miss + burst + L2 + back.
  const std::uint64_t lower_bound = cfg.lat.interconnect + cfg.dram.row_miss_cycles +
                                    cfg.dram.burst_cycles + cfg.lat.l2_hit +
                                    cfg.lat.interconnect;
  EXPECT_GE(done, lower_bound);
}

// Regression: overflowed loads whose line lands in the L1 while they wait
// must complete without ever touching the MSHR map.  The old hit-after-wait
// path re-registered the waiter under `mshr[line]` — bypassing the capacity
// check — and scheduled a synthetic fill whose delivery erased the whole
// entry; two such retries within a couple of cycles of each other then
// shared one entry, and the second synthetic fill either tripped the
// delivery assert or (under NDEBUG) woke waiters twice.  The scenario: a
// single-MSHR port, a long-flight miss pinning it, a deep overflow queue so
// same-line retries are spaced further apart than a short L2-hit flight.
TEST(MemorySystemTest, HitAfterWaitCompletesEachWaiterExactlyOnce) {
  GpuConfig cfg = config();
  cfg.l1_mshrs = 1;
  cfg.lat.interconnect = 1;  // L2-hit round trip: 1 + l2_hit + 1 cycles
  cfg.lat.l2_hit = 1;
  MemorySystem memory(cfg);

  constexpr std::uint64_t kHotLine = 7777;
  // SM 1 warms the hot line into the (shared) L2.
  EXPECT_FALSE(memory.load(1, kHotLine, 1, 0));
  (void)drain(memory, 1);

  // SM 0: one long DRAM-bound miss occupies the only MSHR...
  const std::uint64_t start = 10000;
  EXPECT_FALSE(memory.load(0, 42, 2, start));
  // ...then a deep overflow queue: mostly distinct cold lines, with the hot
  // line sprinkled throughout.  Rotation retries ~64 entries per cycle, so
  // with ~300 queued a given entry retries every few cycles — longer than
  // the hot line's 3-cycle L2-hit flight once some retry allocates it, so
  // later hot-line retries find the line already in the L1 (the hit-after-
  // wait path) instead of merging, several of them in adjacent cycles.
  std::uint32_t n_queued = 0;
  std::uint32_t n_hot = 0;
  for (std::uint32_t i = 0; i < 300; ++i) {
    const bool hot = i % 6 == 5;
    const std::uint64_t line = hot ? kHotLine : 100000 + i;
    n_hot += hot ? 1 : 0;
    EXPECT_FALSE(memory.load(0, line, 100 + i, start));
    ++n_queued;
  }
  ASSERT_GT(n_hot, 10u);

  std::vector<MemCompletion> out;
  // token -> completion cycle, for the duplicate and clustering checks.
  std::vector<std::uint64_t> completed_at(100 + n_queued, 0);
  std::uint64_t hit_wait_cluster = 0;  ///< hot completions <= 2 cycles apart
  std::uint64_t last_hot_completion = 0;
  for (std::uint64_t c = start + 1; c < start + 2000000; ++c) {
    out.clear();
    memory.tick(c, out);
    for (const MemCompletion& done : out) {
      ASSERT_EQ(completed_at[done.token], 0u)
          << "token " << done.token << " completed twice";
      completed_at[done.token] = c;
      if (done.token >= 100 && (done.token - 100) % 6 == 5) {
        if (last_hot_completion != 0 && c - last_hot_completion <= 2) {
          ++hit_wait_cluster;
        }
        last_hot_completion = c;
      }
    }
    if (!memory.busy()) break;
  }
  EXPECT_FALSE(memory.busy());
  EXPECT_EQ(completed_at[2] != 0, true);  // the MSHR-pinning miss
  for (std::uint32_t i = 0; i < n_queued; ++i) {
    EXPECT_NE(completed_at[100 + i], 0u) << "token " << (100 + i) << " lost";
  }
  // The dangerous shape actually occurred: hit-after-wait completions of
  // the hot line clustered within <= 2 cycles of each other (the spacing
  // that made the old synthetic-fill scheme double-wake / assert).
  EXPECT_GT(hit_wait_cluster, 0u);
  // And the hit path ran at all: the only L1 hits possible here are retry
  // probes finding the hot line filled (every issue-time probe missed).
  EXPECT_GE(memory.stats().l1.hits, 2u);
}

// Pins the overflow queue's retry order: which waiting load takes a freed
// MSHR, and when each one completes.  SM 0 has 2 MSHRs and a one-set,
// two-way L1, and an L2 hit refills its L1 within the tick that sends the
// request.  Two DRAM-bound misses take both MSHRs; 130 loads of six
// L2-warm lines then queue behind them, 26 per cycle, so the queue grows
// past the 64-entry retry window while every retry pass is blocked.  After
// each tick that wakes one of SM 0's loads, one of 4 fresh loads follows.
// The run covers repeated lines, a fresh load allocating a line that still
// has queued entries, hit-after-wait completions, and an L1 eviction of a
// line that still has queued entries.  The expected values were recorded
// from a retry loop that probed the whole window on every cycle.
TEST(MemorySystemTest, OverflowRetryOrderIsPinned) {
  GpuConfig cfg = config();
  cfg.l1 = CacheGeometry{.bytes = 256, .line_bytes = 128, .associativity = 2};
  cfg.l1_mshrs = 2;
  cfg.lat.interconnect = 0;
  cfg.lat.l2_hit = 0;
  MemorySystem memory(cfg);

  std::vector<Completion> got;
  std::vector<MemCompletion> out;
  std::uint64_t cycle = 0;
  bool woke_sm0 = false;
  const auto tick = [&] {
    out.clear();
    memory.tick(cycle, out);
    woke_sm0 = false;
    for (const MemCompletion& c : out) {
      got.push_back(Completion{.cycle = cycle, .sm = c.sm_id, .token = c.token});
      woke_sm0 = woke_sm0 || c.sm_id == 0;
    }
    ++cycle;
  };

  // SM 1 warms lines 0-5 into the shared L2.
  for (std::uint32_t line = 0; line < 6; ++line) {
    (void)memory.load(1, line, 1000 + line, cycle);
  }
  while (memory.busy()) tick();

  WarpToken token = 0;
  (void)memory.load(0, 100, token++, cycle);
  (void)memory.load(0, 101, token++, cycle);
  for (std::uint32_t i = 0; i < 130; ++i) {
    (void)memory.load(0, (i * 3 + i / 7) % 6, token++, cycle);
    if (i % 26 == 25) tick();
  }
  std::uint64_t fresh_line = 0;
  for (int fresh = 0; memory.busy();) {
    if (woke_sm0 && fresh < 4) {
      (void)memory.load(0, fresh_line, token++, cycle);
      fresh_line = (fresh_line + 3) % 6;
      ++fresh;
    }
    tick();
  }

  const std::vector<Completion> expected = {
      {60, 1, 1000}, {60, 1, 1001}, {121, 1, 1002}, {121, 1, 1003},
      {182, 1, 1004}, {182, 1, 1005}, {243, 0, 0}, {243, 0, 1}, {244, 0, 132},
      {244, 0, 65}, {244, 0, 86}, {244, 0, 88}, {244, 0, 90}, {244, 0, 92},
      {244, 0, 67}, {244, 0, 69}, {244, 0, 71}, {244, 0, 2}, {244, 0, 4},
      {244, 0, 6}, {244, 0, 8}, {244, 0, 60}, {244, 0, 62}, {244, 0, 64},
      {244, 0, 81}, {244, 0, 83}, {244, 0, 85}, {244, 0, 100}, {244, 0, 102},
      {244, 0, 104}, {244, 0, 79}, {244, 0, 16}, {244, 0, 18}, {245, 0, 133},
      {245, 0, 24}, {245, 0, 26}, {245, 0, 28}, {245, 0, 45}, {245, 0, 47},
      {245, 0, 49}, {245, 0, 108}, {245, 0, 110}, {245, 0, 112}, {245, 0, 129},
      {245, 0, 131}, {245, 0, 21}, {245, 0, 38}, {245, 0, 40}, {245, 0, 42},
      {245, 0, 122}, {245, 0, 124}, {245, 0, 126}, {246, 0, 134}, {246, 0, 58},
      {246, 0, 20}, {246, 0, 22}, {246, 0, 23}, {246, 0, 25}, {246, 0, 27},
      {246, 0, 29}, {246, 0, 37}, {246, 0, 39}, {246, 0, 41}, {246, 0, 43},
      {246, 0, 44}, {246, 0, 46}, {246, 0, 48}, {246, 0, 50}, {246, 0, 106},
      {246, 0, 107}, {246, 0, 109}, {246, 0, 111}, {246, 0, 113}, {246, 0, 121},
      {246, 0, 123}, {246, 0, 125}, {246, 0, 127}, {246, 0, 128}, {246, 0, 130},
      {247, 0, 135}, {247, 0, 93}, {247, 0, 95}, {247, 0, 97}, {247, 0, 99},
      {247, 0, 72}, {247, 0, 74}, {247, 0, 76}, {247, 0, 78}, {247, 0, 9},
      {247, 0, 11}, {247, 0, 13}, {247, 0, 15}, {247, 0, 30}, {247, 0, 32},
      {247, 0, 34}, {247, 0, 36}, {247, 0, 51}, {247, 0, 114}, {247, 0, 116},
      {247, 0, 118}, {247, 0, 120}, {247, 0, 53}, {247, 0, 55}, {247, 0, 57},
      {247, 0, 59}, {247, 0, 61}, {247, 0, 63}, {247, 0, 80}, {247, 0, 82},
      {247, 0, 84}, {247, 0, 87}, {247, 0, 89}, {247, 0, 91}, {247, 0, 101},
      {247, 0, 103}, {247, 0, 105}, {247, 0, 66}, {247, 0, 68}, {247, 0, 70},
      {247, 0, 3}, {247, 0, 5}, {247, 0, 7}, {247, 0, 17}, {247, 0, 19},
      {248, 0, 94}, {248, 0, 96}, {248, 0, 98}, {248, 0, 73}, {248, 0, 75},
      {248, 0, 77}, {248, 0, 10}, {248, 0, 12}, {248, 0, 14}, {248, 0, 31},
      {248, 0, 33}, {248, 0, 35}, {248, 0, 115}, {248, 0, 117}, {248, 0, 119},
      {248, 0, 52}, {248, 0, 54}, {248, 0, 56},
  };
  EXPECT_EQ(got, expected);
  // L1 and L2 hits, misses and evictions; DRAM row hits, row misses, loads,
  // stores and scheduling decisions; then the four MSHR counters.
  const std::vector<std::uint64_t> expected_stats = {
      45, 142, 13, 9, 8, 0, 0, 8, 8, 0, 8, 80, 0, 134, 0};
  EXPECT_EQ(stat_fields(memory.stats()), expected_stats);
}

// Regression: the L2 MSHR pool is a soft capacity knob — requests past the
// limit are still accepted — but overflowing it must be visible in stats.
TEST(MemorySystemTest, L2MshrOverflowIsCountedAndStillCompletes) {
  GpuConfig cfg = config();
  cfg.l2_mshrs = 1;
  MemorySystem memory(cfg);
  // Two distinct cold lines miss L2 back to back: the first takes the only
  // L2 MSHR, the second overflows the pool (counted) yet still completes.
  EXPECT_FALSE(memory.load(0, 100, 1, 0));
  EXPECT_FALSE(memory.load(0, 200, 2, 0));
  const auto completions = drain(memory, 2);
  EXPECT_EQ(completions.size(), 2u);
  EXPECT_EQ(memory.stats().l2_mshr_overflows, 1u);
  EXPECT_EQ(memory.stats().dram.loads, 2u);
  EXPECT_FALSE(memory.busy());

  // Merges into an existing entry are not overflows.
  MemorySystem merged(cfg);
  EXPECT_FALSE(merged.load(0, 100, 1, 0));
  EXPECT_FALSE(merged.load(1, 100, 1, 0));
  (void)drain(merged, 2);
  EXPECT_EQ(merged.stats().l2_mshr_overflows, 0u);
  EXPECT_EQ(merged.stats().l2_mshr_merges, 1u);
}

}  // namespace
}  // namespace tbp::sim
