#include "sim/memory_system.hpp"

#include <gtest/gtest.h>

#include <vector>

namespace tbp::sim {
namespace {

GpuConfig config() { return fermi_config(); }

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
