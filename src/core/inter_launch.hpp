// Inter-launch sampling (paper Section III).
//
// Each kernel launch becomes a 4-dimensional feature vector (Eq. 2):
//   < kernel launch size        = thread instructions,
//     control-flow divergence   = warp instructions,
//     memory divergence         = memory requests,
//     thread-block variation    = CoV of per-block thread-instruction counts >
// each dimension normalized by its mean across launches.  Hierarchical
// clustering with a distance threshold groups launches with homogeneous
// performance; the launch nearest each cluster's centroid is the simulation
// point that represents the cluster.
#pragma once

#include <cstddef>
#include <vector>

#include "cluster/feature.hpp"
#include "profile/profiler.hpp"

namespace tbp::core {

struct InterLaunchOptions {
  double distance_threshold = 0.1;  ///< paper: sigma = 0.1 for inter-launch
  /// The paper's future-work extension (Section III, footnote 2): append
  /// the launch's normalized basic-block vector to the Eq. 2 features.
  /// Separates launches whose aggregate counts coincide but whose code
  /// paths differ, at the cost of more clusters (larger total sample).
  /// Each BBV dimension is weighted by 0.5 so the (many) BBV dimensions
  /// do not drown the four Eq. 2 features.
  bool include_bbv = false;
};

struct InterLaunchResult {
  /// Normalized Eq. 2 feature vector per launch.
  std::vector<cluster::FeatureVector> features;
  /// Dense cluster id per launch.
  std::vector<int> cluster_of_launch;
  /// Member launch indices per cluster.
  std::vector<std::vector<std::size_t>> clusters;
  /// Per cluster: the representative launch (nearest the centroid).
  std::vector<std::size_t> representatives;
  /// Per launch: Euclidean feature-space distance to the launch's
  /// representative.  Zero for representatives themselves.
  /// The accuracy-attribution report correlates this with the inter-launch
  /// projection error: a member far from its representative is exactly the
  /// launch whose IPC the projection is most likely to miss.
  std::vector<double> distance_to_representative;

  [[nodiscard]] bool is_representative(std::size_t launch) const noexcept;
};

/// Raw (un-normalized) Eq. 2 features of one launch.
[[nodiscard]] cluster::FeatureVector inter_feature_vector(
    const profile::LaunchProfile& launch);

/// Full inter-launch sampling: features, clustering, representatives.
[[nodiscard]] InterLaunchResult cluster_launches(
    const profile::ApplicationProfile& profile, const InterLaunchOptions& options = {});

}  // namespace tbp::core
