// Feature vectors and the distance shared by both clustering algorithms.
//
// TBPoint's inter-launch feature vectors have 4 dimensions (paper Eq. 2),
// intra-launch vectors have 1 (Eq. 5), and Ideal-SimPoint basic-block
// vectors have one dimension per static basic block, so everything is kept
// as dynamically-sized vectors of double.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

namespace tbp::cluster {

using FeatureVector = std::vector<double>;

/// Euclidean distance, the metric of every clustering in the pipeline.
[[nodiscard]] double distance(std::span<const double> a,
                              std::span<const double> b) noexcept;

/// Component-wise mean of a set of member vectors selected by index.
[[nodiscard]] FeatureVector centroid(std::span<const FeatureVector> points,
                                     std::span<const std::size_t> members);

/// Index (into `members`) of the member closest to the centroid of
/// `members` — the paper's representative-selection rule ("the kernel launch
/// with the inter-feature vector closest to the center of the cluster").
/// Ties break toward the lower index for determinism.
[[nodiscard]] std::size_t nearest_to_centroid(std::span<const FeatureVector> points,
                                              std::span<const std::size_t> members);

/// Groups labels produced by a clustering into per-cluster member lists.
/// Labels must be dense in [0, n_clusters).
[[nodiscard]] std::vector<std::vector<std::size_t>> members_by_cluster(
    std::span<const int> labels);

/// Normalizes each dimension of every vector by that dimension's mean across
/// all vectors (Eq. 2's "normalized with its average value across all kernel
/// launches").  Dimensions with zero mean become all-zero.
[[nodiscard]] std::vector<FeatureVector> normalize_dimensions_by_mean(
    std::span<const FeatureVector> points);

}  // namespace tbp::cluster
