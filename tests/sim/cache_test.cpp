#include "sim/cache.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <optional>

namespace tbp::sim {
namespace {

CacheGeometry tiny_cache() {
  // 4 sets x 2 ways x 128 B lines = 1 KB.
  return CacheGeometry{.bytes = 1024, .line_bytes = 128, .associativity = 2};
}

TEST(CacheTest, GeometryMath) {
  EXPECT_EQ(tiny_cache().n_sets(), 4u);
  const CacheGeometry fermi_l1{.bytes = 16384, .line_bytes = 128, .associativity = 8};
  EXPECT_EQ(fermi_l1.n_sets(), 16u);
}

TEST(CacheTest, MissThenHitAfterFill) {
  SetAssocCache cache(tiny_cache());
  EXPECT_FALSE(cache.access(0));
  cache.fill(0);
  EXPECT_TRUE(cache.access(0));
  EXPECT_EQ(cache.stats().hits, 1u);
  EXPECT_EQ(cache.stats().misses, 1u);
}

TEST(CacheTest, ContainsDoesNotTouchStatsOrLru) {
  SetAssocCache cache(tiny_cache());
  cache.fill(0);
  EXPECT_TRUE(cache.contains(0));
  EXPECT_FALSE(cache.contains(4));
  EXPECT_EQ(cache.stats().hits, 0u);
  EXPECT_EQ(cache.stats().misses, 0u);
}

TEST(CacheTest, LruEvictionWithinSet) {
  SetAssocCache cache(tiny_cache());
  // Lines 0, 4, 8 all map to set 0 (4 sets).  Two ways.
  cache.fill(0);
  cache.fill(4);
  EXPECT_TRUE(cache.access(0));   // 0 is now MRU
  cache.fill(8);                  // evicts 4 (LRU)
  EXPECT_TRUE(cache.contains(0));
  EXPECT_FALSE(cache.contains(4));
  EXPECT_TRUE(cache.contains(8));
}

TEST(CacheTest, FillReportsTheEvictedLine) {
  SetAssocCache cache(tiny_cache());
  // Lines 0, 4, 8 and 12 all map to set 0 (4 sets).  Two ways.
  EXPECT_EQ(cache.fill(0), std::nullopt);  // invalid way
  EXPECT_EQ(cache.fill(4), std::nullopt);  // invalid way
  EXPECT_EQ(cache.fill(4), std::nullopt);  // already present
  EXPECT_TRUE(cache.access(0));            // 4 is now LRU
  EXPECT_EQ(cache.fill(8), std::optional<std::uint64_t>{4});
  EXPECT_EQ(cache.fill(12), std::optional<std::uint64_t>{0});
  EXPECT_EQ(cache.stats().evictions, 2u);
}

TEST(CacheTest, AccessRefreshesLru) {
  SetAssocCache cache(tiny_cache());
  cache.fill(0);
  cache.fill(4);
  // Without the refresh 0 would be LRU; access makes 4 the victim.
  EXPECT_TRUE(cache.access(0));
  cache.fill(8);
  EXPECT_TRUE(cache.contains(0));
  EXPECT_FALSE(cache.contains(4));
}

TEST(CacheTest, SetsAreIndependent) {
  SetAssocCache cache(tiny_cache());
  cache.fill(0);  // set 0
  cache.fill(1);  // set 1
  cache.fill(2);  // set 2
  cache.fill(3);  // set 3
  EXPECT_TRUE(cache.contains(0));
  EXPECT_TRUE(cache.contains(1));
  EXPECT_TRUE(cache.contains(2));
  EXPECT_TRUE(cache.contains(3));
}

TEST(CacheTest, DoubleFillDoesNotDuplicate) {
  SetAssocCache cache(tiny_cache());
  cache.fill(0);
  cache.fill(0);  // duplicate fill (e.g. racing MSHR)
  cache.fill(4);  // second way; nothing should have been evicted
  EXPECT_TRUE(cache.contains(0));
  EXPECT_TRUE(cache.contains(4));
}

TEST(CacheTest, HitRateMath) {
  CacheStats stats;
  stats.hits = 3;
  stats.misses = 1;
  EXPECT_DOUBLE_EQ(stats.hit_rate(), 0.75);
  EXPECT_DOUBLE_EQ(CacheStats{}.hit_rate(), 0.0);
}

TEST(CacheTest, LargeLineNumbersMapCorrectly) {
  SetAssocCache cache(tiny_cache());
  const std::uint64_t big = (1ull << 40) + 4;  // set 0
  cache.fill(big);
  EXPECT_TRUE(cache.contains(big));
  EXPECT_FALSE(cache.contains(4));  // same set, different tag
}

}  // namespace
}  // namespace tbp::sim
