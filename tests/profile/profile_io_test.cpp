#include "profile/profile_io.hpp"

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <string_view>

#include "support/artifact.hpp"

namespace tbp::profile {
namespace {

/// A current-version profile file around `body`, with a valid checksum, so
/// the loader's own checks are what reject it.
std::stringstream sealed(std::string_view body) {
  return std::stringstream(io::seal_artifact("tbpoint-profile-v2", body));
}

ApplicationProfile sample_profile() {
  ApplicationProfile app;
  LaunchProfile l1;
  l1.kernel_name = "kernel_a";
  l1.blocks = {{.thread_insts = 320, .warp_insts = 10, .mem_requests = 4},
               {.thread_insts = 640, .warp_insts = 20, .mem_requests = 8}};
  l1.bbv = {5, 0, 3, 22};
  LaunchProfile l2;
  l2.kernel_name = "kernel_b";
  l2.blocks = {{.thread_insts = 96, .warp_insts = 3, .mem_requests = 0}};
  l2.bbv = {1, 2};
  app.launches = {std::move(l1), std::move(l2)};
  return app;
}

TEST(ProfileIoTest, RoundTripPreservesEverything) {
  const ApplicationProfile original = sample_profile();
  std::stringstream stream;
  save_profile(original, stream);
  const auto loaded = load_profile(stream);
  ASSERT_TRUE(loaded.has_value());
  ASSERT_EQ(loaded->launches.size(), original.launches.size());
  for (std::size_t l = 0; l < original.launches.size(); ++l) {
    const LaunchProfile& a = original.launches[l];
    const LaunchProfile& b = loaded->launches[l];
    EXPECT_EQ(a.kernel_name, b.kernel_name);
    EXPECT_EQ(a.bbv, b.bbv);
    ASSERT_EQ(a.blocks.size(), b.blocks.size());
    for (std::size_t i = 0; i < a.blocks.size(); ++i) {
      EXPECT_EQ(a.blocks[i].thread_insts, b.blocks[i].thread_insts);
      EXPECT_EQ(a.blocks[i].warp_insts, b.blocks[i].warp_insts);
      EXPECT_EQ(a.blocks[i].mem_requests, b.blocks[i].mem_requests);
    }
  }
}

TEST(ProfileIoTest, EmptyProfileRoundTrips) {
  std::stringstream stream;
  save_profile(ApplicationProfile{}, stream);
  const auto loaded = load_profile(stream);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_TRUE(loaded->launches.empty());
}

TEST(ProfileIoTest, RejectsWrongMagic) {
  std::stringstream stream("not-a-profile\n0\n");
  const auto loaded = load_profile(stream);
  ASSERT_FALSE(loaded.has_value());
  EXPECT_EQ(loaded.status().code(), StatusCode::kCorrupt);
}

TEST(ProfileIoTest, UnknownVersionIsVersionMismatch) {
  std::stringstream stream("tbpoint-profile-v9\n0\n");
  const auto loaded = load_profile(stream);
  ASSERT_FALSE(loaded.has_value());
  EXPECT_EQ(loaded.status().code(), StatusCode::kVersionMismatch);
}

TEST(ProfileIoTest, LegacyV1WithoutChecksumIsVersionMismatch) {
  // The checksum-free v1 that preceded the trailer is never parsed.
  std::stringstream stream(
      "tbpoint-profile-v1\n1\nlaunch kernel_a 1 2\nbbv 5 7\n96 3 0\n");
  const auto loaded = load_profile(stream);
  ASSERT_FALSE(loaded.has_value());
  EXPECT_EQ(loaded.status().code(), StatusCode::kVersionMismatch);
}

TEST(ProfileIoTest, HugeLaunchCountRejectedBeforeAllocation) {
  // A lying size field must be rejected as too-large up front, not fed to
  // resize/reserve.
  std::stringstream stream = sealed("999999999999\n");
  const auto loaded = load_profile(stream);
  ASSERT_FALSE(loaded.has_value());
  EXPECT_EQ(loaded.status().code(), StatusCode::kTooLarge);
}

TEST(ProfileIoTest, HugeBlockCountRejectedBeforeAllocation) {
  std::stringstream stream = sealed("1\nlaunch k 888888888888 1\nbbv 5\n");
  const auto loaded = load_profile(stream);
  ASSERT_FALSE(loaded.has_value());
  EXPECT_EQ(loaded.status().code(), StatusCode::kTooLarge);
}

TEST(ProfileIoTest, RejectsTrailingGarbage) {
  // Records after the declared launch count must not be silently ignored
  // (that is how a spliced or magic-flipped file would slip through).
  std::stringstream doubled = sealed("0\n1 2 3\n");
  const auto loaded = load_profile(doubled);
  ASSERT_FALSE(loaded.has_value());
  EXPECT_EQ(loaded.status().code(), StatusCode::kCorrupt);
}

TEST(ProfileIoTest, RejectsTruncatedInput) {
  const ApplicationProfile original = sample_profile();
  std::stringstream stream;
  save_profile(original, stream);
  std::string text = stream.str();
  text.resize(text.size() / 2);
  std::stringstream truncated(text);
  EXPECT_FALSE(load_profile(truncated).has_value());
}

TEST(ProfileIoTest, RejectsGarbageNumbers) {
  std::stringstream stream = sealed("1\nlaunch k 1 1\nbbv 5\nxx yy zz\n");
  const auto loaded = load_profile(stream);
  ASSERT_FALSE(loaded.has_value());
  EXPECT_EQ(loaded.status().code(), StatusCode::kCorrupt);
}

TEST(ProfileIoTest, FileRoundTrip) {
  const ApplicationProfile original = sample_profile();
  const std::string path = ::testing::TempDir() + "/tbp_profile_io_test.txt";
  ASSERT_TRUE(save_profile_file(original, path).ok());
  const auto loaded = load_profile_file(path);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->launches.size(), 2u);
  EXPECT_EQ(loaded->launches[0].kernel_name, "kernel_a");
}

TEST(ProfileIoTest, MissingFileIsNotFound) {
  const auto loaded = load_profile_file("/nonexistent/path/profile.txt");
  ASSERT_FALSE(loaded.has_value());
  EXPECT_EQ(loaded.status().code(), StatusCode::kNotFound);
}

TEST(ProfileIoTest, UnwritablePathIsIoError) {
  EXPECT_FALSE(
      save_profile_file(sample_profile(), "/proc/tbp/cannot/write.txt").ok());
}

}  // namespace
}  // namespace tbp::profile
