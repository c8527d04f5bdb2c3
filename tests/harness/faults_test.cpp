// Corruption-injection suite: every artifact loader must turn arbitrary
// truncations, bit flips and splices into a structured error — never a
// crash, a hang, or a silently wrong value.  The corruptions are generated
// deterministically (harness/faults.hpp), so any failing variant can be
// replayed by its name.
#include "harness/faults.hpp"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

#include "core/region_io.hpp"
#include "harness/cache.hpp"
#include "profile/profile_io.hpp"
#include "support/artifact.hpp"
#include "support/atomic_file.hpp"
#include "support/checksum.hpp"

namespace tbp::harness {
namespace {

// ---- primitives ----

TEST(FaultsTest, TruncateAt) {
  EXPECT_EQ(truncate_at("abcdef", 0), "");
  EXPECT_EQ(truncate_at("abcdef", 3), "abc");
  EXPECT_EQ(truncate_at("abcdef", 99), "abcdef");
}

TEST(FaultsTest, FlipBit) {
  EXPECT_EQ(flip_bit("a", 0), "`");  // 'a' ^ 1
  EXPECT_EQ(flip_bit(std::string("ab"), 8), std::string("ac"));
  EXPECT_EQ(flip_bit("", 5), "");
  // Flipping the same bit twice restores the original.
  EXPECT_EQ(flip_bit(flip_bit("payload", 13), 13), "payload");
}

TEST(FaultsTest, Splice) {
  EXPECT_EQ(splice("aaaa", "bbbb", 2), "aabb");
  EXPECT_EQ(splice("aaaa", "bb", 3), "aaa");  // donor shorter than offset
  EXPECT_EQ(splice("aa", "bbbb", 2), "aabb");
}

TEST(FaultsTest, SuiteIsDeterministic) {
  const std::string payload = "tbpoint-profile-v2\nsome body\ncrc32 00000000\n";
  const auto a = corruption_suite(payload, "donor-text", 99);
  const auto b = corruption_suite(payload, "donor-text", 99);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].name, b[i].name);
    EXPECT_EQ(a[i].payload, b[i].payload);
  }
  // A different seed moves the random corruption sites.
  const auto c = corruption_suite(payload, "donor-text", 100);
  ASSERT_EQ(a.size(), c.size());
  bool any_differ = false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    any_differ = any_differ || a[i].name != c[i].name;
  }
  EXPECT_TRUE(any_differ);
}

std::string read_whole_file(const std::filesystem::path& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

// ---- loaders under injected corruption ----

/// Every corrupted variant must fail to load with a structured error.  A
/// splice inside the shared magic prefix can reassemble the complete donor
/// file, and a splice at the very end can reproduce the pristine one — both
/// are valid artifacts, not corruption, so those variants are skipped.
template <typename LoadFn>
void expect_all_variants_rejected(const std::string& pristine,
                                  const std::string& donor, LoadFn load) {
  const auto suite = corruption_suite(pristine, donor);
  ASSERT_FALSE(suite.empty());
  for (const Corruption& corruption : suite) {
    if (corruption.payload == pristine || corruption.payload == donor) continue;
    const Status status = load(corruption.payload);
    EXPECT_FALSE(status.ok()) << "loader accepted corruption " << corruption.name;
    EXPECT_NE(status.code(), StatusCode::kNotFound)
        << corruption.name << " misreported as a miss";
  }
}

std::string sample_profile_text() {
  profile::ApplicationProfile app;
  profile::LaunchProfile launch;
  launch.kernel_name = "kernel_a";
  launch.blocks = {{.thread_insts = 320, .warp_insts = 10, .mem_requests = 4},
                   {.thread_insts = 640, .warp_insts = 20, .mem_requests = 8}};
  launch.bbv = {5, 0, 3, 22};
  app.launches.push_back(std::move(launch));
  std::ostringstream out;
  save_profile(app, out);
  return out.str();
}

std::string donor_profile_text() {
  profile::ApplicationProfile app;
  profile::LaunchProfile launch;
  launch.kernel_name = "donor_kernel";
  launch.blocks = {{.thread_insts = 32, .warp_insts = 1, .mem_requests = 0}};
  launch.bbv = {9};
  app.launches.push_back(std::move(launch));
  std::ostringstream out;
  save_profile(app, out);
  return out.str();
}

TEST(FaultsTest, ProfileLoaderRejectsEveryCorruption) {
  expect_all_variants_rejected(
      sample_profile_text(), donor_profile_text(), [](const std::string& text) {
        std::istringstream in(text);
        return profile::load_profile(in).status();
      });
}

std::string sample_regions_text() {
  core::RegionTableSet set;
  set.system_occupancy = 84;
  set.tables.emplace_back(
      100, std::vector<core::HomogeneousRegion>{
               {.region_id = 0, .start_block = 0, .end_block = 39, .n_epochs = 5},
               {.region_id = 1, .start_block = 60, .end_block = 99, .n_epochs = 5},
           });
  std::ostringstream out;
  core::save_region_tables(set, out);
  return out.str();
}

std::string donor_regions_text() {
  core::RegionTableSet set;
  set.system_occupancy = 42;
  set.tables.emplace_back(
      7, std::vector<core::HomogeneousRegion>{
             {.region_id = 0, .start_block = 1, .end_block = 3, .n_epochs = 2},
         });
  std::ostringstream out;
  core::save_region_tables(set, out);
  return out.str();
}

TEST(FaultsTest, RegionLoaderRejectsEveryCorruption) {
  expect_all_variants_rejected(
      sample_regions_text(), donor_regions_text(), [](const std::string& text) {
        std::istringstream in(text);
        return core::load_region_tables(in).status();
      });
}

TEST(FaultsTest, CacheRowRejectsEveryCorruption) {
  // Rows live as sealed store entries now, so the corruption targets are
  // the entry files under objects/.  The donor is a complete valid entry
  // for a *different* key; unlike the plain artifact loaders, the cache
  // must reject even that (the entry's id header pins it to its path), so
  // only the exact pristine bytes are skipped.
  const std::string dir = ::testing::TempDir() + "/tbp_faults_cache";
  std::filesystem::remove_all(dir);

  ExperimentRow row;
  row.workload = "bfs";
  row.n_launches = 14;
  row.full_ipc = 2.25;
  ASSERT_TRUE(save_cached_row(dir, "victim", row).ok());
  const std::string pristine = read_whole_file(cached_row_path(dir, "victim"));
  ExperimentRow donor_row;
  donor_row.workload = "sssp";
  donor_row.n_launches = 99;
  donor_row.full_ipc = 1.125;
  ASSERT_TRUE(save_cached_row(dir, "donor", donor_row).ok());
  const std::string donor = read_whole_file(cached_row_path(dir, "donor"));

  const auto suite = corruption_suite(pristine, donor);
  ASSERT_FALSE(suite.empty());
  for (const Corruption& corruption : suite) {
    if (corruption.payload == pristine) continue;
    // Re-arm: a rejected variant quarantines the entry (file and index
    // row), so each round starts from a freshly saved row.
    ASSERT_TRUE(save_cached_row(dir, "victim", row).ok());
    std::ofstream(cached_row_path(dir, "victim"),
                  std::ios::binary | std::ios::trunc)
        << corruption.payload;
    const Status status = load_cached_row(dir, "victim").status();
    EXPECT_FALSE(status.ok()) << "cache served corruption " << corruption.name;
    EXPECT_NE(status.code(), StatusCode::kNotFound)
        << corruption.name << " misreported as a miss";
  }
}

// ---- bounded allocation under lying size fields ----

TEST(FaultsTest, CheckedEnvelopeDefeatsSizeFieldForgery) {
  // Even with a correctly recomputed checksum, a lying size field is
  // rejected by the hard cap before any allocation happens.
  const std::string forged =
      io::seal_artifact("tbpoint-profile-v2", "99999999999999\n");
  std::istringstream in(forged);
  const auto loaded = profile::load_profile(in);
  ASSERT_FALSE(loaded.has_value());
  EXPECT_EQ(loaded.status().code(), StatusCode::kTooLarge);
}

TEST(FaultsTest, OversizedArtifactRejectedBeforeRead) {
  // Files above the hard artifact byte cap are refused before any buffer is
  // sized to hold them.
  const std::string dir = ::testing::TempDir() + "/tbp_faults_big";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  const std::string path = dir + "/huge.txt";
  {
    std::ofstream out(path);
    out << "tbpoint-profile-v2\n";
  }
  std::filesystem::resize_file(path, io::kMaxArtifactBytes + 1);
  const auto loaded = profile::load_profile_file(path);
  ASSERT_FALSE(loaded.has_value());
  EXPECT_EQ(loaded.status().code(), StatusCode::kTooLarge);
}

// ---- checksum unit checks ----

TEST(FaultsTest, Crc32MatchesKnownVectors) {
  // Standard IEEE CRC-32 check values (zlib-compatible).
  EXPECT_EQ(tbp::crc32(""), 0x00000000u);
  EXPECT_EQ(tbp::crc32("123456789"), 0xcbf43926u);
  EXPECT_EQ(tbp::crc32("The quick brown fox jumps over the lazy dog"),
            0x414fa339u);
}

TEST(FaultsTest, SealUnsealRoundTrip) {
  const io::ArtifactFormat format{.magic = "tbpoint-test-v2",
                                  .family = "tbpoint-test-",
                                  .kind = "test"};
  const std::string sealed = io::seal_artifact(format.magic, "line one\n");
  const auto body = io::unseal_artifact(sealed, format);
  ASSERT_TRUE(body.has_value());
  EXPECT_EQ(*body, "line one\n");

  // Any single bit flip anywhere in the sealed text is detected.
  for (std::size_t bit = 0; bit < sealed.size() * 8; ++bit) {
    const std::string mutated = flip_bit(sealed, bit);
    const auto result = io::unseal_artifact(mutated, format);
    EXPECT_FALSE(result.has_value()) << "bit " << bit << " not detected";
  }
}

}  // namespace
}  // namespace tbp::harness
