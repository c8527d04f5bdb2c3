// Agglomerative hierarchical clustering with a distance-threshold cut.
//
// The paper clusters inter-launch feature vectors (sigma = 0.1) and
// intra-launch epoch vectors (sigma = 0.2) hierarchically, defining the
// threshold as "the maximum distance between any two points in a cluster" —
// i.e. complete linkage with the dendrogram cut at height sigma.
//
// Complete linkage under the Euclidean distance is the only clustering the
// pipeline runs.  The production path is the NN-chain algorithm (O(n^2)
// time, O(n^2) space for the Lance-Williams distance matrix), which is
// exact for complete linkage because that linkage is reducible.  A naive
// O(n^3) implementation is provided for cross-validation in tests.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "cluster/feature.hpp"

namespace tbp::cluster {

/// One agglomeration step.  `left` and `right` are node ids: leaves are
/// 0..n-1, internal nodes are n, n+1, ... in merge order.  `height` is the
/// complete-linkage distance at which the merge happened.
struct Merge {
  std::size_t left = 0;
  std::size_t right = 0;
  double height = 0.0;
  std::size_t size = 0;  ///< leaves under the merged node
};

class Dendrogram {
 public:
  Dendrogram(std::size_t n_leaves, std::vector<Merge> merges)
      : n_leaves_(n_leaves), merges_(std::move(merges)) {}

  [[nodiscard]] std::size_t n_leaves() const noexcept { return n_leaves_; }
  [[nodiscard]] std::span<const Merge> merges() const noexcept { return merges_; }

  /// Cuts the tree: keeps every merge with height <= threshold, discards the
  /// rest, and returns a dense cluster label per leaf.  Labels are assigned
  /// in order of each cluster's smallest leaf index, so output is
  /// deterministic regardless of merge order.
  [[nodiscard]] std::vector<int> cut(double threshold) const;

 private:
  std::size_t n_leaves_;
  /// In creation order: the node id of merges_[i] is n_leaves_ + i, and the
  /// children of a merge are always created before it.
  std::vector<Merge> merges_;
};

/// Exact agglomerative clustering via the NN-chain algorithm.
[[nodiscard]] Dendrogram agglomerate(std::span<const FeatureVector> points);

/// Reference O(n^3) implementation; produces a dendrogram with the same cut
/// semantics (tests assert label equivalence against `agglomerate`).
[[nodiscard]] Dendrogram agglomerate_naive(std::span<const FeatureVector> points);

/// Convenience: cluster and cut at `threshold` in one call, the operation
/// TBPoint performs for both inter- and intra-launch sampling.
[[nodiscard]] std::vector<int> cluster_by_threshold(
    std::span<const FeatureVector> points, double threshold);

}  // namespace tbp::cluster
