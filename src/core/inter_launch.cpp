#include "core/inter_launch.hpp"

#include <algorithm>

#include "cluster/hierarchical.hpp"

namespace tbp::core {
namespace {

/// Weight of each BBV dimension when include_bbv is set, so the (many) BBV
/// dimensions do not drown the four Eq. 2 features.
constexpr double kBbvWeight = 0.5;

}  // namespace

bool InterLaunchResult::is_representative(std::size_t launch) const noexcept {
  return std::find(representatives.begin(), representatives.end(), launch) !=
         representatives.end();
}

cluster::FeatureVector inter_feature_vector(const profile::LaunchProfile& launch) {
  return {
      static_cast<double>(launch.total_thread_insts()),
      static_cast<double>(launch.total_warp_insts()),
      static_cast<double>(launch.total_mem_requests()),
      launch.block_size_cov(),
  };
}

InterLaunchResult cluster_launches(const profile::ApplicationProfile& profile,
                                   const InterLaunchOptions& options) {
  InterLaunchResult result;
  const std::size_t n = profile.launches.size();
  if (n == 0) return result;

  std::vector<cluster::FeatureVector> raw;
  raw.reserve(n);
  for (const profile::LaunchProfile& launch : profile.launches) {
    raw.push_back(inter_feature_vector(launch));
  }
  result.features = cluster::normalize_dimensions_by_mean(raw);

  if (options.include_bbv) {
    // Footnote-2 extension: append each launch's execution-frequency BBV
    // (normalized within the launch, then weighted).  Within-launch
    // normalization makes the BBV a code-mix signature independent of
    // launch size, complementing the four magnitude features.
    for (std::size_t l = 0; l < n; ++l) {
      const std::vector<std::uint64_t>& bbv = profile.launches[l].bbv;
      std::uint64_t total = 0;
      for (std::uint64_t v : bbv) total += v;
      for (std::uint64_t v : bbv) {
        const double normalized =
            total == 0 ? 0.0
                       : static_cast<double>(v) / static_cast<double>(total);
        result.features[l].push_back(kBbvWeight * normalized);
      }
    }
  }

  result.cluster_of_launch =
      cluster::cluster_by_threshold(result.features, options.distance_threshold);
  result.clusters = cluster::members_by_cluster(result.cluster_of_launch);

  result.representatives.reserve(result.clusters.size());
  for (const std::vector<std::size_t>& members : result.clusters) {
    const std::size_t within =
        cluster::nearest_to_centroid(result.features, members);
    result.representatives.push_back(members[within]);
  }

  result.distance_to_representative.resize(n, 0.0);
  for (std::size_t c = 0; c < result.clusters.size(); ++c) {
    const cluster::FeatureVector& rep_features =
        result.features[result.representatives[c]];
    for (const std::size_t member : result.clusters[c]) {
      result.distance_to_representative[member] =
          cluster::distance(result.features[member], rep_features);
    }
  }
  return result;
}

}  // namespace tbp::core
