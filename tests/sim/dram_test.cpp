#include "sim/dram.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "sim/config.hpp"

namespace tbp::sim {
namespace {

GpuConfig config() { return fermi_config(); }

/// Runs the channel until `n` replies arrive or `max_cycles` pass.
std::vector<DramReply> drain(DramChannel& channel, std::size_t n,
                             std::uint64_t start_cycle = 0,
                             std::uint64_t max_cycles = 100000) {
  std::vector<DramReply> replies;
  for (std::uint64_t c = start_cycle; c < start_cycle + max_cycles; ++c) {
    channel.tick(c, replies);
    if (replies.size() >= n) break;
  }
  return replies;
}

TEST(DramTest, SingleLoadCompletes) {
  DramChannel channel(config());
  channel.push({.line = 0, .is_store = false, .arrival = 0});
  const auto replies = drain(channel, 1);
  ASSERT_EQ(replies.size(), 1u);
  EXPECT_EQ(replies[0].line, 0u);
  // First access: row miss + burst.
  EXPECT_EQ(replies[0].ready,
            config().dram.row_miss_cycles + config().dram.burst_cycles);
  EXPECT_FALSE(channel.busy());
}

TEST(DramTest, StoreProducesNoReply) {
  DramChannel channel(config());
  channel.push({.line = 0, .is_store = true, .arrival = 0});
  const auto replies = drain(channel, 1, 0, 1000);
  EXPECT_TRUE(replies.empty());
  EXPECT_FALSE(channel.busy());
  EXPECT_EQ(channel.stats().stores, 1u);
}

TEST(DramTest, RowHitIsFasterThanRowMiss) {
  const GpuConfig cfg = config();
  DramChannel channel(cfg);
  // Same page: second access is a row hit.
  channel.push({.line = 0, .is_store = false, .arrival = 0});
  channel.push({.line = cfg.n_channels, .is_store = false, .arrival = 0});
  const auto replies = drain(channel, 2);
  ASSERT_EQ(replies.size(), 2u);
  const std::uint64_t first = replies[0].ready;
  const std::uint64_t second = replies[1].ready;
  // The second (row hit) is scheduled one cycle later but only pays the
  // row-hit latency; it must complete well before a second row miss would.
  EXPECT_LT(second - first, cfg.dram.row_miss_cycles);
}

TEST(DramTest, FrFcfsPrefersRowHitOverOlderMiss) {
  const GpuConfig cfg = config();
  DramChannel channel(cfg);
  const std::uint64_t lines_per_page = cfg.lines_per_dram_page();
  // Open a row in bank 0.
  channel.push({.line = 0, .is_store = false, .arrival = 0});
  std::vector<DramReply> replies;
  channel.tick(0, replies);  // schedules the opener
  // Now: a miss to bank 0 (different row) arrives BEFORE a hit to the open
  // row.  Wait until bank 0 is idle again, then tick once: FR-FCFS must
  // pick the row hit despite the miss being older.
  const std::uint64_t other_row = lines_per_page * cfg.banks_per_channel *
                                  cfg.n_channels;  // bank 0, row 1
  channel.push({.line = other_row, .is_store = false, .arrival = 1});
  channel.push({.line = cfg.n_channels * 2, .is_store = false, .arrival = 2});
  const auto all = drain(channel, 3, 1);
  ASSERT_EQ(all.size(), 3u);
  // The hit (line 2*n_channels, same row 0) completes before the miss.
  std::uint64_t hit_ready = 0;
  std::uint64_t miss_ready = 0;
  for (const DramReply& r : all) {
    if (r.line == cfg.n_channels * 2) hit_ready = r.ready;
    if (r.line == other_row) miss_ready = r.ready;
  }
  EXPECT_LT(hit_ready, miss_ready);
  EXPECT_GE(channel.stats().row_hits, 1u);
}

TEST(DramTest, BusSerializesBankParallelism) {
  const GpuConfig cfg = config();
  DramChannel channel(cfg);
  // Four requests to four different banks, all arriving at cycle 0: banks
  // overlap their row activations but the data bursts serialize.
  const std::uint64_t bank_stride = cfg.lines_per_dram_page() * cfg.n_channels;
  for (std::uint64_t b = 0; b < 4; ++b) {
    channel.push({.line = b * bank_stride, .is_store = false, .arrival = 0});
  }
  auto replies = drain(channel, 4);
  ASSERT_EQ(replies.size(), 4u);
  std::vector<std::uint64_t> ready;
  for (const auto& r : replies) ready.push_back(r.ready);
  std::sort(ready.begin(), ready.end());
  for (std::size_t i = 1; i < ready.size(); ++i) {
    EXPECT_GE(ready[i] - ready[i - 1], cfg.dram.burst_cycles);
  }
}

TEST(DramTest, PushOntoIdleBankStartsWhileOtherBanksAreBusy) {
  const GpuConfig cfg = config();
  DramChannel channel(cfg);
  const std::uint64_t bank_stride = cfg.lines_per_dram_page() * cfg.n_channels;
  std::vector<DramReply> replies;
  // Bank 0 starts one load and keeps a second queued behind it, so the
  // channel has work but no bank that can start until bank 0 is free.
  channel.push({.line = 0, .is_store = false, .arrival = 0});
  channel.push({.line = 0, .is_store = false, .arrival = 0});
  for (std::uint64_t c = 0; c < 5; ++c) channel.tick(c, replies);
  ASSERT_EQ(channel.stats().scheduling_decisions, 1u);
  const std::uint64_t bank0_free =
      cfg.dram.row_miss_cycles + cfg.dram.burst_cycles;
  ASSERT_GT(bank0_free, 5u);

  // A load onto idle bank 1 starts on the very tick it is pushed for.
  channel.push({.line = bank_stride, .is_store = false, .arrival = 5});
  channel.tick(5, replies);
  EXPECT_EQ(channel.stats().scheduling_decisions, 2u);
  // Started at cycle 5, its burst follows bank 0's first on the data bus.
  const std::uint64_t expected =
      std::max<std::uint64_t>(5 + cfg.dram.row_miss_cycles, bank0_free) +
      cfg.dram.burst_cycles;
  const auto all = drain(channel, 3, 6);
  const auto it = std::find_if(all.begin(), all.end(), [&](const DramReply& r) {
    return r.line == bank_stride;
  });
  ASSERT_NE(it, all.end());
  EXPECT_EQ(it->ready, expected);
}

TEST(DramTest, FutureArrivalWaitsEvenOnAnIdleChannel) {
  const GpuConfig cfg = config();
  DramChannel channel(cfg);
  channel.push({.line = 0, .is_store = false, .arrival = 10});
  std::vector<DramReply> replies;
  for (std::uint64_t c = 0; c < 10; ++c) channel.tick(c, replies);
  EXPECT_EQ(channel.stats().scheduling_decisions, 0u);
  channel.tick(10, replies);
  EXPECT_EQ(channel.stats().scheduling_decisions, 1u);
  const auto all = drain(channel, 1, 11);
  ASSERT_EQ(all.size(), 1u);
  EXPECT_EQ(all[0].ready, 10 + cfg.dram.row_miss_cycles + cfg.dram.burst_cycles);
}

TEST(DramTest, SystemRoutesByChannel) {
  const GpuConfig cfg = config();
  DramSystem dram(cfg);
  // One load per channel; all should complete independently.
  for (std::uint64_t c = 0; c < cfg.n_channels; ++c) {
    dram.push(c, /*is_store=*/false, 0);
  }
  std::vector<DramReply> replies;
  for (std::uint64_t cycle = 0; cycle < 1000 && replies.size() < cfg.n_channels;
       ++cycle) {
    dram.tick(cycle, replies);
  }
  EXPECT_EQ(replies.size(), cfg.n_channels);
  // No bus conflicts across channels: all finish at the same time.
  for (const DramReply& r : replies) {
    EXPECT_EQ(r.ready, replies[0].ready);
  }
  EXPECT_FALSE(dram.busy());
}

TEST(DramTest, StatsAccumulate) {
  const GpuConfig cfg = config();
  DramSystem dram(cfg);
  for (int i = 0; i < 10; ++i) dram.push(0, false, 0);
  std::vector<DramReply> replies;
  for (std::uint64_t cycle = 0; cycle < 10000 && replies.size() < 10; ++cycle) {
    dram.tick(cycle, replies);
  }
  const DramStats stats = dram.aggregate_stats();
  EXPECT_EQ(stats.loads, 10u);
  EXPECT_EQ(stats.row_hits + stats.row_misses, 10u);
  EXPECT_GE(stats.row_hits, 9u);  // same line: everything after the opener hits
}

TEST(DramTest, DeterministicReplies) {
  const GpuConfig cfg = config();
  auto run = [&] {
    DramChannel channel(cfg);
    for (std::uint64_t i = 0; i < 20; ++i) {
      channel.push({.line = i * 37 % 64 * cfg.n_channels, .is_store = i % 3 == 0,
                    .arrival = i / 2});
    }
    std::vector<DramReply> replies;
    for (std::uint64_t c = 0; c < 5000; ++c) channel.tick(c, replies);
    return replies;
  };
  const auto a = run();
  const auto b = run();
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].line, b[i].line);
    EXPECT_EQ(a[i].ready, b[i].ready);
  }
}

}  // namespace
}  // namespace tbp::sim
