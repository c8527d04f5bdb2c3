#include "core/region_io.hpp"

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <string_view>

#include "support/artifact.hpp"

namespace tbp::core {
namespace {

/// A current-version regions file around `body`, with a valid checksum, so
/// the loader's own checks are what reject it.
std::stringstream sealed(std::string_view body) {
  return std::stringstream(io::seal_artifact("tbpoint-regions-v2", body));
}

RegionTableSet sample_set() {
  RegionTableSet set;
  set.system_occupancy = 84;
  set.tables.emplace_back(
      100, std::vector<HomogeneousRegion>{
               {.region_id = 0, .start_block = 0, .end_block = 39, .n_epochs = 5},
               {.region_id = 1, .start_block = 60, .end_block = 99, .n_epochs = 5},
           });
  set.tables.emplace_back(10, std::vector<HomogeneousRegion>{});
  return set;
}

TEST(RegionIoTest, RoundTripPreservesTables) {
  const RegionTableSet original = sample_set();
  std::stringstream stream;
  save_region_tables(original, stream);
  const auto loaded = load_region_tables(stream);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->system_occupancy, 84u);
  ASSERT_EQ(loaded->tables.size(), 2u);

  const RegionTable& table = loaded->tables[0];
  EXPECT_EQ(table.n_blocks(), 100u);
  ASSERT_EQ(table.regions().size(), 2u);
  EXPECT_EQ(table.region_of(0), 0);
  EXPECT_EQ(table.region_of(39), 0);
  EXPECT_EQ(table.region_of(40), RegionTable::kNoRegion);
  EXPECT_EQ(table.region_of(60), 1);
  EXPECT_EQ(table.regions()[1].n_epochs, 5u);
  EXPECT_TRUE(loaded->tables[1].regions().empty());
}

TEST(RegionIoTest, RejectsWrongMagic) {
  std::stringstream stream("not-regions\n84 0\n");
  const auto loaded = load_region_tables(stream);
  ASSERT_FALSE(loaded.has_value());
  EXPECT_EQ(loaded.status().code(), StatusCode::kCorrupt);
}

TEST(RegionIoTest, UnknownVersionIsVersionMismatch) {
  std::stringstream stream("tbpoint-regions-v7\n84 0\n");
  const auto loaded = load_region_tables(stream);
  ASSERT_FALSE(loaded.has_value());
  EXPECT_EQ(loaded.status().code(), StatusCode::kVersionMismatch);
}

TEST(RegionIoTest, LegacyV1WithoutChecksumIsVersionMismatch) {
  // The checksum-free v1 that preceded the trailer is never parsed.
  std::stringstream stream("tbpoint-regions-v1\n84 1\ntable 10 1\n0 2 5 3\n");
  const auto loaded = load_region_tables(stream);
  ASSERT_FALSE(loaded.has_value());
  EXPECT_EQ(loaded.status().code(), StatusCode::kVersionMismatch);
}

TEST(RegionIoTest, HugeTableCountRejectedBeforeAllocation) {
  std::stringstream stream = sealed("84 888888888888\n");
  const auto loaded = load_region_tables(stream);
  ASSERT_FALSE(loaded.has_value());
  EXPECT_EQ(loaded.status().code(), StatusCode::kTooLarge);
}

TEST(RegionIoTest, HugeRegionCountRejectedBeforeAllocation) {
  std::stringstream stream = sealed("84 1\ntable 10 999999999999\n");
  const auto loaded = load_region_tables(stream);
  ASSERT_FALSE(loaded.has_value());
  EXPECT_EQ(loaded.status().code(), StatusCode::kTooLarge);
}

TEST(RegionIoTest, RejectsTrailingGarbage) {
  std::stringstream stream = sealed("84 0\nstray\n");
  const auto loaded = load_region_tables(stream);
  ASSERT_FALSE(loaded.has_value());
  EXPECT_EQ(loaded.status().code(), StatusCode::kCorrupt);
}

TEST(RegionIoTest, RejectsTruncation) {
  std::stringstream full;
  save_region_tables(sample_set(), full);
  std::string text = full.str();
  text.resize(text.size() * 2 / 3);
  std::stringstream truncated(text);
  EXPECT_FALSE(load_region_tables(truncated).has_value());
}

TEST(RegionIoTest, RejectsOutOfRangeRegions) {
  // end 20 >= 10 blocks
  std::stringstream stream = sealed("84 1\ntable 10 1\n0 5 20 2\n");
  const auto loaded = load_region_tables(stream);
  ASSERT_FALSE(loaded.has_value());
  EXPECT_EQ(loaded.status().code(), StatusCode::kCorrupt);
}

TEST(RegionIoTest, RejectsOverlappingRegions) {
  std::stringstream stream = sealed("84 1\ntable 10 2\n0 0 5 1\n1 4 9 1\n");
  const auto loaded = load_region_tables(stream);
  ASSERT_FALSE(loaded.has_value());
  EXPECT_EQ(loaded.status().code(), StatusCode::kCorrupt);
}

TEST(RegionIoTest, FileRoundTrip) {
  const std::string path = ::testing::TempDir() + "/tbp_regions_test.txt";
  ASSERT_TRUE(save_region_tables_file(sample_set(), path).ok());
  const auto loaded = load_region_tables_file(path);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->tables.size(), 2u);
}

TEST(RegionIoTest, MissingFileIsNotFound) {
  const auto loaded = load_region_tables_file("/nonexistent/r.txt");
  ASSERT_FALSE(loaded.has_value());
  EXPECT_EQ(loaded.status().code(), StatusCode::kNotFound);
}

}  // namespace
}  // namespace tbp::core
