// Corruption-injection suite: the cached-row loader must turn arbitrary
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

#include "harness/cache.hpp"
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
  const std::string payload = "tbpoint-row-v3\nsome body\ncrc32 00000000\n";
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

// ---- the cached-row loader under injected corruption ----

TEST(FaultsTest, CacheRowRejectsEveryCorruption) {
  // Rows live as sealed store entries, so the corruption targets are the
  // entry files under objects/.  The donor is a complete valid entry for a
  // *different* key; the cache must reject even that (the entry's id
  // header pins it to its path), so only the exact pristine bytes are
  // skipped.
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

// ---- bounded allocation ----

TEST(FaultsTest, OversizedArtifactRejectedBeforeRead) {
  // Files above the hard artifact byte cap are refused before any buffer is
  // sized to hold them.
  const std::string dir = ::testing::TempDir() + "/tbp_faults_big";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  const std::string path = dir + "/huge.txt";
  {
    std::ofstream out(path);
    out << "tbpoint-row-v3\n";
  }
  std::filesystem::resize_file(path, io::kMaxArtifactBytes + 1);
  const auto loaded = io::read_file_limited(path);
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
