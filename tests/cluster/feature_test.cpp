#include "cluster/feature.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

namespace tbp::cluster {
namespace {

TEST(FeatureTest, EuclideanDistance) {
  const FeatureVector a = {0.0, 0.0};
  const FeatureVector b = {3.0, 4.0};
  EXPECT_DOUBLE_EQ(distance(a, b), 5.0);
}

TEST(FeatureTest, DistanceToSelfIsZero) {
  const FeatureVector a = {1.5, 2.5, -3.0};
  EXPECT_DOUBLE_EQ(distance(a, a), 0.0);
}

TEST(FeatureTest, CentroidOfSubset) {
  const std::vector<FeatureVector> points = {{0.0, 0.0}, {2.0, 4.0}, {100.0, 100.0}};
  const std::vector<std::size_t> members = {0, 1};
  const FeatureVector c = centroid(points, members);
  EXPECT_DOUBLE_EQ(c[0], 1.0);
  EXPECT_DOUBLE_EQ(c[1], 2.0);
}

TEST(FeatureTest, NearestToCentroid) {
  const std::vector<FeatureVector> points = {{0.0}, {1.0}, {10.0}};
  const std::vector<std::size_t> members = {0, 1, 2};
  // Centroid ~ 3.67; closest member is {1.0} (index 1 within members).
  EXPECT_EQ(nearest_to_centroid(points, members), 1u);
}

TEST(FeatureTest, NearestToCentroidTieBreaksLow) {
  const std::vector<FeatureVector> points = {{0.0}, {2.0}};
  const std::vector<std::size_t> members = {0, 1};
  EXPECT_EQ(nearest_to_centroid(points, members), 0u);
}

TEST(FeatureTest, MembersByCluster) {
  const std::vector<int> labels = {0, 1, 0, 2, 1};
  const auto members = members_by_cluster(labels);
  ASSERT_EQ(members.size(), 3u);
  EXPECT_EQ(members[0], (std::vector<std::size_t>{0, 2}));
  EXPECT_EQ(members[1], (std::vector<std::size_t>{1, 4}));
  EXPECT_EQ(members[2], (std::vector<std::size_t>{3}));
}

TEST(FeatureTest, NormalizeDimensionsByMean) {
  const std::vector<FeatureVector> points = {{2.0, 0.0}, {4.0, 0.0}};
  const auto out = normalize_dimensions_by_mean(points);
  EXPECT_DOUBLE_EQ(out[0][0], 2.0 / 3.0);
  EXPECT_DOUBLE_EQ(out[1][0], 4.0 / 3.0);
  // Zero-mean dimension becomes all-zero, not NaN.
  EXPECT_DOUBLE_EQ(out[0][1], 0.0);
  EXPECT_DOUBLE_EQ(out[1][1], 0.0);
}

}  // namespace
}  // namespace tbp::cluster
