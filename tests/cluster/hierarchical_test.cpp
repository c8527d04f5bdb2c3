#include "cluster/hierarchical.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <tuple>
#include <vector>

#include "stats/rng.hpp"

namespace tbp::cluster {
namespace {

/// Relabels a clustering canonically (by first appearance) so that label
/// permutations compare equal.
std::vector<int> canonical(const std::vector<int>& labels) {
  std::map<int, int> remap;
  std::vector<int> out;
  out.reserve(labels.size());
  for (int l : labels) {
    auto [it, inserted] = remap.emplace(l, static_cast<int>(remap.size()));
    out.push_back(it->second);
  }
  return out;
}

/// `n` points with `dims` coordinates drawn uniformly from [0, spread).
std::vector<FeatureVector> random_points(std::uint64_t seed, std::size_t n,
                                         std::size_t dims,
                                         double spread = 10.0) {
  stats::Rng rng(seed);
  std::vector<FeatureVector> points(n, FeatureVector(dims));
  for (auto& p : points) {
    for (double& x : p) x = rng.uniform(0.0, spread);
  }
  return points;
}

TEST(HierarchicalTest, EmptyAndSingleton) {
  const std::vector<FeatureVector> none;
  EXPECT_TRUE(cluster_by_threshold(none, 1.0).empty());

  const std::vector<FeatureVector> one = {{1.0, 2.0}};
  const std::vector<int> labels = cluster_by_threshold(one, 1.0);
  ASSERT_EQ(labels.size(), 1u);
  EXPECT_EQ(labels[0], 0);
}

TEST(HierarchicalTest, TwoFarPointsStaySeparate) {
  const std::vector<FeatureVector> points = {{0.0}, {10.0}};
  const std::vector<int> labels = cluster_by_threshold(points, 1.0);
  EXPECT_NE(labels[0], labels[1]);
}

TEST(HierarchicalTest, TwoClosePointsMerge) {
  const std::vector<FeatureVector> points = {{0.0}, {0.5}};
  const std::vector<int> labels = cluster_by_threshold(points, 1.0);
  EXPECT_EQ(labels[0], labels[1]);
}

TEST(HierarchicalTest, ObviousTwoClusterStructure) {
  const std::vector<FeatureVector> points = {
      {0.0, 0.0}, {0.1, 0.0}, {0.0, 0.1}, {5.0, 5.0}, {5.1, 5.0}, {5.0, 5.1}};
  const std::vector<int> labels = cluster_by_threshold(points, 1.0);
  EXPECT_EQ(labels[0], labels[1]);
  EXPECT_EQ(labels[1], labels[2]);
  EXPECT_EQ(labels[3], labels[4]);
  EXPECT_EQ(labels[4], labels[5]);
  EXPECT_NE(labels[0], labels[3]);
}

TEST(HierarchicalTest, IdenticalPointsFormOneCluster) {
  const std::vector<FeatureVector> points(7, FeatureVector{3.0, 3.0});
  const std::vector<int> labels = cluster_by_threshold(points, 0.0);
  for (int l : labels) EXPECT_EQ(l, 0);
}

TEST(HierarchicalTest, ZeroThresholdSeparatesDistinctPoints) {
  const std::vector<FeatureVector> points = {{0.0}, {0.001}, {0.002}};
  const std::vector<int> labels = cluster_by_threshold(points, 0.0);
  std::set<int> distinct(labels.begin(), labels.end());
  EXPECT_EQ(distinct.size(), 3u);
}

/// The paper defines the threshold as the maximum distance between any two
/// points in a cluster; with complete linkage every cut cluster must honor
/// that diameter bound.
TEST(HierarchicalTest, CompleteLinkageRespectsDiameterBound) {
  const std::vector<FeatureVector> points = random_points(17, 60, 3);
  const double threshold = 4.0;
  const std::vector<int> labels = cluster_by_threshold(points, threshold);
  for (std::size_t i = 0; i < points.size(); ++i) {
    for (std::size_t j = i + 1; j < points.size(); ++j) {
      if (labels[i] == labels[j]) {
        EXPECT_LE(distance(points[i], points[j]), threshold)
            << "cluster diameter exceeds the threshold";
      }
    }
  }
}

TEST(HierarchicalTest, MergeHeightsAreMonotoneAlongPaths) {
  // Complete linkage cannot produce inversions: every merge's height must
  // be >= the heights of the merges it joins.
  const std::vector<FeatureVector> points = random_points(31, 40, 2);
  const Dendrogram tree = agglomerate(points);
  const auto merges = tree.merges();
  const std::size_t n = tree.n_leaves();
  for (std::size_t i = 0; i < merges.size(); ++i) {
    for (const std::size_t child : {merges[i].left, merges[i].right}) {
      if (child >= n) {
        EXPECT_LE(merges[child - n].height, merges[i].height + 1e-12);
      }
    }
  }
}

struct NnChainParam {
  std::uint64_t seed;
  std::size_t n;
  std::size_t dims;
  double spread;  ///< coordinate range, see random_points
};

class NnChainEquivalence : public ::testing::TestWithParam<NnChainParam> {};

/// The production NN-chain algorithm and the naive O(n^3) reference must
/// produce identical flat clusterings at every cut level.
TEST_P(NnChainEquivalence, MatchesNaiveReference) {
  const NnChainParam p = GetParam();
  const std::vector<FeatureVector> points =
      random_points(p.seed, p.n, p.dims, p.spread);
  const Dendrogram fast = agglomerate(points);
  const Dendrogram naive = agglomerate_naive(points);

  // Same multiset of merge heights.
  std::vector<double> fast_heights;
  std::vector<double> naive_heights;
  for (const Merge& m : fast.merges()) fast_heights.push_back(m.height);
  for (const Merge& m : naive.merges()) naive_heights.push_back(m.height);
  std::sort(fast_heights.begin(), fast_heights.end());
  std::sort(naive_heights.begin(), naive_heights.end());
  ASSERT_EQ(fast_heights.size(), naive_heights.size());
  for (std::size_t i = 0; i < fast_heights.size(); ++i) {
    EXPECT_NEAR(fast_heights[i], naive_heights[i], 1e-9);
  }

  // Same flat clustering at several thresholds.
  for (const double frac : {0.0, 0.25, 0.5, 0.75, 1.0}) {
    const double threshold =
        fast_heights.empty() ? 0.0 : frac * fast_heights.back() * 0.999;
    EXPECT_EQ(canonical(fast.cut(threshold)), canonical(naive.cut(threshold)))
        << "cut mismatch at threshold " << threshold;
  }
}

INSTANTIATE_TEST_SUITE_P(
    RandomInstances, NnChainEquivalence,
    ::testing::Values(
        NnChainParam{1, 12, 1, 10.0}, NnChainParam{2, 20, 2, 10.0},
        NnChainParam{3, 35, 3, 1.0}, NnChainParam{4, 12, 1, 0.01},
        NnChainParam{5, 25, 2, 100.0}, NnChainParam{6, 18, 4, 1e4},
        NnChainParam{7, 40, 2, 1.0}, NnChainParam{8, 50, 1, 10.0},
        NnChainParam{9, 9, 5, 10.0}, NnChainParam{10, 30, 2, 1e3}));

TEST(HierarchicalTest, DeterministicAcrossCalls) {
  const std::vector<FeatureVector> points = random_points(99, 50, 3);
  const std::vector<int> a = cluster_by_threshold(points, 2.0);
  const std::vector<int> b = cluster_by_threshold(points, 2.0);
  EXPECT_EQ(a, b);
}

TEST(HierarchicalTest, HigherThresholdNeverIncreasesClusterCount) {
  const std::vector<FeatureVector> points = random_points(7, 40, 2);
  const Dendrogram tree = agglomerate(points);
  std::size_t prev = points.size() + 1;
  for (double t = 0.0; t < 15.0; t += 0.5) {
    const std::vector<int> labels = tree.cut(t);
    const std::set<int> distinct(labels.begin(), labels.end());
    EXPECT_LE(distinct.size(), prev);
    prev = distinct.size();
  }
  EXPECT_EQ(prev, 1u);  // everything merged at a huge threshold
}

}  // namespace
}  // namespace tbp::cluster
