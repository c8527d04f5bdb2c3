// The MSHR line table against std::unordered_map: random inserts, merges
// and erases, growth far past the expected size, and erased slots that
// keep their waiter vectors' capacity.
#include <gtest/gtest.h>

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "sim/line_table.hpp"
#include "stats/rng.hpp"

namespace tbp::sim {
namespace {

TEST(LineTableTest, MatchesAnUnorderedMapUnderRandomTraffic) {
  LineTable<std::uint32_t> table(4);
  std::unordered_map<std::uint64_t, std::vector<std::uint32_t>> model;
  std::vector<std::uint64_t> live;
  stats::Rng rng(7);
  for (std::uint32_t step = 0; step < 20000; ++step) {
    // Lines from a small pool, so merges and re-inserts after erase are
    // frequent; every 64th step a far line, so probe runs wrap the table.
    const std::uint64_t line = step % 64 == 0
                                   ? rng.next()
                                   : (1u << 23) + rng.below(96) * 128;
    std::vector<std::uint32_t>* found = table.find(line);
    const auto it = model.find(line);
    ASSERT_EQ(found != nullptr, it != model.end()) << "step " << step;
    if (found != nullptr) {
      ASSERT_EQ(*found, it->second) << "step " << step;
      if (rng.below(3) == 0) {
        table.erase(line);
        model.erase(it);
      } else {
        found->push_back(step);
        it->second.push_back(step);
      }
    } else if (model.size() < 80) {
      table.insert(line).push_back(step);
      model[line].push_back(step);
    }
    ASSERT_EQ(table.size(), model.size());
  }
  for (const auto& [line, waiters] : model) {
    ASSERT_NE(table.find(line), nullptr);
    EXPECT_EQ(*table.find(line), waiters);
  }
}

TEST(LineTableTest, GrowsPastItsExpectedSize) {
  LineTable<std::uint32_t> table(2);
  for (std::uint32_t i = 0; i < 1000; ++i) table.insert(i * 3).push_back(i);
  EXPECT_EQ(table.size(), 1000u);
  for (std::uint32_t i = 0; i < 1000; ++i) {
    ASSERT_NE(table.find(i * 3), nullptr);
    EXPECT_EQ(*table.find(i * 3), std::vector<std::uint32_t>{i});
    EXPECT_EQ(table.find(i * 3 + 1), nullptr);
  }
  for (std::uint32_t i = 0; i < 1000; i += 2) table.erase(i * 3);
  EXPECT_EQ(table.size(), 500u);
  for (std::uint32_t i = 0; i < 1000; ++i) {
    EXPECT_EQ(table.find(i * 3) != nullptr, i % 2 == 1);
  }
}

TEST(LineTableTest, ReinsertedEntryReusesTheErasedVector) {
  LineTable<std::uint32_t> table(64);
  std::vector<std::uint32_t>& waiters = table.insert(42);
  for (std::uint32_t i = 0; i < 10; ++i) waiters.push_back(i);
  table.erase(42);
  EXPECT_TRUE(table.empty());
  EXPECT_EQ(table.find(42), nullptr);
  std::vector<std::uint32_t>& again = table.insert(42);
  EXPECT_TRUE(again.empty());
  EXPECT_GE(again.capacity(), 10u);
}

}  // namespace
}  // namespace tbp::sim
