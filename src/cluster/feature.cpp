#include "cluster/feature.hpp"

#include <cassert>
#include <cmath>
#include <limits>

namespace tbp::cluster {

double distance(std::span<const double> a, std::span<const double> b) noexcept {
  assert(a.size() == b.size());
  double acc = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const double d = a[i] - b[i];
    acc += d * d;
  }
  return std::sqrt(acc);
}

FeatureVector centroid(std::span<const FeatureVector> points,
                       std::span<const std::size_t> members) {
  assert(!members.empty());
  FeatureVector out(points[members[0]].size(), 0.0);
  for (std::size_t idx : members) {
    const FeatureVector& p = points[idx];
    assert(p.size() == out.size());
    for (std::size_t d = 0; d < out.size(); ++d) out[d] += p[d];
  }
  const auto n = static_cast<double>(members.size());
  for (double& v : out) v /= n;
  return out;
}

std::size_t nearest_to_centroid(std::span<const FeatureVector> points,
                                std::span<const std::size_t> members) {
  const FeatureVector center = centroid(points, members);
  std::size_t best = 0;
  double best_dist = std::numeric_limits<double>::infinity();
  for (std::size_t i = 0; i < members.size(); ++i) {
    const double d = distance(points[members[i]], center);
    if (d < best_dist) {
      best_dist = d;
      best = i;
    }
  }
  return best;
}

std::vector<std::vector<std::size_t>> members_by_cluster(std::span<const int> labels) {
  int max_label = -1;
  for (int l : labels) max_label = std::max(max_label, l);
  std::vector<std::vector<std::size_t>> out(static_cast<std::size_t>(max_label + 1));
  for (std::size_t i = 0; i < labels.size(); ++i) {
    assert(labels[i] >= 0);
    out[static_cast<std::size_t>(labels[i])].push_back(i);
  }
  return out;
}

std::vector<FeatureVector> normalize_dimensions_by_mean(
    std::span<const FeatureVector> points) {
  std::vector<FeatureVector> out(points.begin(), points.end());
  if (points.empty()) return out;
  const std::size_t dims = points[0].size();
  for (std::size_t d = 0; d < dims; ++d) {
    double sum = 0.0;
    for (const FeatureVector& p : points) sum += p[d];
    const double mu = sum / static_cast<double>(points.size());
    for (FeatureVector& p : out) p[d] = (mu == 0.0) ? 0.0 : p[d] / mu;
  }
  return out;
}

}  // namespace tbp::cluster
