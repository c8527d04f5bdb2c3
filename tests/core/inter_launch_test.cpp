#include "core/inter_launch.hpp"

#include <gtest/gtest.h>

#include <set>

namespace tbp::core {
namespace {

profile::LaunchProfile make_profile(std::uint64_t thread_insts_per_block,
                                    std::uint64_t warp_insts_per_block,
                                    std::uint64_t mem_per_block,
                                    std::size_t n_blocks) {
  profile::LaunchProfile launch;
  launch.blocks.assign(n_blocks, profile::BlockStats{
                                     .thread_insts = thread_insts_per_block,
                                     .warp_insts = warp_insts_per_block,
                                     .mem_requests = mem_per_block,
                                 });
  return launch;
}

TEST(InterLaunchTest, FeatureVectorValues) {
  profile::LaunchProfile launch = make_profile(3200, 100, 40, 4);
  const cluster::FeatureVector f = inter_feature_vector(launch);
  ASSERT_EQ(f.size(), 4u);
  EXPECT_DOUBLE_EQ(f[0], 3200.0 * 4);  // thread insts
  EXPECT_DOUBLE_EQ(f[1], 100.0 * 4);   // warp insts
  EXPECT_DOUBLE_EQ(f[2], 40.0 * 4);    // memory requests
  EXPECT_DOUBLE_EQ(f[3], 0.0);         // uniform blocks: zero CoV
}

TEST(InterLaunchTest, FeatureVectorCapturesBlockVariation) {
  profile::LaunchProfile launch;
  launch.blocks = {{.thread_insts = 100, .warp_insts = 10, .mem_requests = 1},
                   {.thread_insts = 900, .warp_insts = 90, .mem_requests = 9}};
  const cluster::FeatureVector f = inter_feature_vector(launch);
  EXPECT_GT(f[3], 0.5);  // strong size variation
}

TEST(InterLaunchTest, IdenticalLaunchesFormOneCluster) {
  profile::ApplicationProfile app;
  for (int i = 0; i < 10; ++i) app.launches.push_back(make_profile(3200, 100, 40, 8));
  const InterLaunchResult result = cluster_launches(app);
  EXPECT_EQ(result.clusters.size(), 1u);
  EXPECT_EQ(result.representatives.size(), 1u);
  EXPECT_EQ(result.clusters[0].size(), 10u);
}

TEST(InterLaunchTest, DistinctLaunchesSeparate) {
  profile::ApplicationProfile app;
  app.launches.push_back(make_profile(3200, 100, 40, 8));   // small
  app.launches.push_back(make_profile(3200, 100, 40, 8));   // small (same)
  app.launches.push_back(make_profile(32000, 1000, 400, 80));  // 10x bigger
  const InterLaunchResult result = cluster_launches(app);
  ASSERT_EQ(result.clusters.size(), 2u);
  EXPECT_EQ(result.cluster_of_launch[0], result.cluster_of_launch[1]);
  EXPECT_NE(result.cluster_of_launch[0], result.cluster_of_launch[2]);
}

TEST(InterLaunchTest, DivergenceSeparatesEqualSizedLaunches) {
  // Same thread instructions, very different warp instructions (the paper's
  // 32-thread-in-1-warp-inst vs 32-warp-inst example).
  profile::ApplicationProfile app;
  app.launches.push_back(make_profile(3200, 100, 40, 8));
  app.launches.push_back(make_profile(3200, 3200, 40, 8));
  const InterLaunchResult result = cluster_launches(app);
  EXPECT_EQ(result.clusters.size(), 2u);
}

TEST(InterLaunchTest, MemoryDivergenceSeparates) {
  profile::ApplicationProfile app;
  app.launches.push_back(make_profile(3200, 100, 10, 8));
  app.launches.push_back(make_profile(3200, 100, 300, 8));
  const InterLaunchResult result = cluster_launches(app);
  EXPECT_EQ(result.clusters.size(), 2u);
}

TEST(InterLaunchTest, NearIdenticalLaunchesMergeWithinThreshold) {
  // 1% differences normalize to distances far below sigma = 0.1.
  profile::ApplicationProfile app;
  app.launches.push_back(make_profile(3200, 100, 40, 8));
  app.launches.push_back(make_profile(3232, 101, 40, 8));
  const InterLaunchResult result = cluster_launches(app);
  EXPECT_EQ(result.clusters.size(), 1u);
}

TEST(InterLaunchTest, RepresentativeIsClusterMember) {
  profile::ApplicationProfile app;
  app.launches.push_back(make_profile(3200, 100, 40, 8));
  app.launches.push_back(make_profile(3230, 101, 41, 8));
  app.launches.push_back(make_profile(32000, 1000, 400, 80));
  const InterLaunchResult result = cluster_launches(app);
  for (std::size_t c = 0; c < result.clusters.size(); ++c) {
    const auto& members = result.clusters[c];
    EXPECT_TRUE(std::find(members.begin(), members.end(),
                          result.representatives[c]) != members.end());
    EXPECT_TRUE(result.is_representative(result.representatives[c]));
  }
}

TEST(InterLaunchTest, ClustersPartitionLaunches) {
  profile::ApplicationProfile app;
  for (std::uint64_t i = 0; i < 12; ++i) {
    app.launches.push_back(make_profile(1000 + 400 * (i % 3), 100, 40, 8));
  }
  const InterLaunchResult result = cluster_launches(app);
  std::set<std::size_t> seen;
  for (const auto& members : result.clusters) {
    for (std::size_t m : members) {
      EXPECT_TRUE(seen.insert(m).second) << "launch in two clusters";
    }
  }
  EXPECT_EQ(seen.size(), 12u);
}

TEST(InterLaunchTest, TighterThresholdNeverMakesFewerClusters) {
  profile::ApplicationProfile app;
  for (std::uint64_t i = 0; i < 10; ++i) {
    app.launches.push_back(make_profile(1000 + i * 60, 100 + i * 3, 40, 8));
  }
  InterLaunchOptions loose;
  loose.distance_threshold = 0.5;
  InterLaunchOptions tight;
  tight.distance_threshold = 0.01;
  EXPECT_GE(cluster_launches(app, tight).clusters.size(),
            cluster_launches(app, loose).clusters.size());
}

TEST(InterLaunchTest, BbvExtensionSeparatesCodeMixTwins) {
  // Two launches with identical aggregate counts but different basic-block
  // mixes: indistinguishable to the plain Eq. 2 features, separated once
  // the footnote-2 BBV extension is enabled.
  profile::ApplicationProfile app;
  profile::LaunchProfile a = make_profile(3200, 100, 40, 8);
  a.bbv = {800, 0, 0, 0};
  profile::LaunchProfile b = make_profile(3200, 100, 40, 8);
  b.bbv = {0, 800, 0, 0};
  app.launches = {a, b};

  const InterLaunchResult plain = cluster_launches(app);
  EXPECT_EQ(plain.clusters.size(), 1u);

  InterLaunchOptions with_bbv;
  with_bbv.include_bbv = true;
  const InterLaunchResult extended = cluster_launches(app, with_bbv);
  EXPECT_EQ(extended.clusters.size(), 2u);
  EXPECT_EQ(extended.features[0].size(), 8u);  // 4 Eq. 2 dims + 4 BBV dims
}

TEST(InterLaunchTest, BbvExtensionKeepsIdenticalLaunchesTogether) {
  profile::ApplicationProfile app;
  for (int i = 0; i < 5; ++i) {
    profile::LaunchProfile launch = make_profile(3200, 100, 40, 8);
    launch.bbv = {400, 300, 100, 0};
    app.launches.push_back(std::move(launch));
  }
  InterLaunchOptions with_bbv;
  with_bbv.include_bbv = true;
  EXPECT_EQ(cluster_launches(app, with_bbv).clusters.size(), 1u);
}

TEST(InterLaunchTest, EmptyApplication) {
  const InterLaunchResult result = cluster_launches(profile::ApplicationProfile{});
  EXPECT_TRUE(result.clusters.empty());
  EXPECT_TRUE(result.representatives.empty());
}

}  // namespace
}  // namespace tbp::core
