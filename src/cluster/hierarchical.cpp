#include "cluster/hierarchical.hpp"

#include <algorithm>
#include <limits>
#include <numeric>

namespace tbp::cluster {
namespace {

class UnionFind {
 public:
  explicit UnionFind(std::size_t n) : parent_(n) {
    std::iota(parent_.begin(), parent_.end(), std::size_t{0});
  }

  std::size_t find(std::size_t x) noexcept {
    while (parent_[x] != x) {
      parent_[x] = parent_[parent_[x]];
      x = parent_[x];
    }
    return x;
  }

  void unite(std::size_t a, std::size_t b) noexcept { parent_[find(a)] = find(b); }

 private:
  std::vector<std::size_t> parent_;
};

}  // namespace

std::vector<int> Dendrogram::cut(double threshold) const {
  UnionFind uf(n_leaves_ + merges_.size());
  for (std::size_t i = 0; i < merges_.size(); ++i) {
    const Merge& m = merges_[i];
    const std::size_t self = n_leaves_ + i;
    if (m.height <= threshold) {
      uf.unite(m.left, self);
      uf.unite(m.right, self);
    }
  }
  // Dense labels in order of each cluster's smallest leaf.
  std::vector<int> root_to_label(n_leaves_ + merges_.size(), -1);
  std::vector<int> labels(n_leaves_, -1);
  int next = 0;
  for (std::size_t leaf = 0; leaf < n_leaves_; ++leaf) {
    const std::size_t root = uf.find(leaf);
    if (root_to_label[root] < 0) root_to_label[root] = next++;
    labels[leaf] = root_to_label[root];
  }
  return labels;
}

Dendrogram agglomerate(std::span<const FeatureVector> points) {
  const std::size_t n = points.size();
  std::vector<Merge> merges;
  if (n <= 1) return Dendrogram{n, std::move(merges)};
  merges.reserve(n - 1);

  // Slot-based state: slot i initially holds leaf i; a merge collapses into
  // the lower slot and deactivates the other.
  std::vector<double> dist(n * n, 0.0);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i + 1; j < n; ++j) {
      const double d = distance(points[i], points[j]);
      dist[i * n + j] = d;
      dist[j * n + i] = d;
    }
  }
  std::vector<char> active(n, 1);
  std::vector<std::size_t> leaf_count(n, 1);
  std::vector<std::size_t> node_id(n);  // current dendrogram node held by slot
  std::iota(node_id.begin(), node_id.end(), std::size_t{0});

  std::vector<std::size_t> chain;
  chain.reserve(n);
  std::size_t n_active = n;
  std::size_t scan_start = 0;  // smallest possibly-active slot

  while (n_active > 1) {
    if (chain.empty()) {
      while (!active[scan_start]) ++scan_start;
      chain.push_back(scan_start);
    }
    const std::size_t top = chain.back();
    // Nearest active neighbour of `top`, smallest slot on ties.
    double best = std::numeric_limits<double>::infinity();
    std::size_t arg = top;
    const double* drow = dist.data() + top * n;
    for (std::size_t k = 0; k < n; ++k) {
      if (!active[k] || k == top) continue;
      if (drow[k] < best) {
        best = drow[k];
        arg = k;
      }
    }
    // Prefer the previous chain element on ties: guarantees termination.
    if (chain.size() >= 2 && dist[top * n + chain[chain.size() - 2]] <= best) {
      arg = chain[chain.size() - 2];
      best = dist[top * n + arg];
    }
    if (chain.size() >= 2 && arg == chain[chain.size() - 2]) {
      // Reciprocal nearest neighbours: merge.
      chain.pop_back();
      chain.pop_back();
      const std::size_t a = std::min(top, arg);
      const std::size_t b = std::max(top, arg);
      merges.push_back(Merge{
          .left = node_id[a],
          .right = node_id[b],
          .height = best,
          .size = leaf_count[a] + leaf_count[b],
      });
      // Lance-Williams update for complete linkage: the merged cluster's
      // distance to bystander k is the larger of its parts' distances.
      for (std::size_t k = 0; k < n; ++k) {
        if (!active[k] || k == a || k == b) continue;
        const double d = std::max(dist[a * n + k], dist[b * n + k]);
        dist[a * n + k] = d;
        dist[k * n + a] = d;
      }
      active[b] = 0;
      leaf_count[a] += leaf_count[b];
      node_id[a] = n + merges.size() - 1;
      --n_active;
    } else {
      chain.push_back(arg);
    }
  }
  return Dendrogram{n, std::move(merges)};
}

Dendrogram agglomerate_naive(std::span<const FeatureVector> points) {
  const std::size_t n = points.size();
  std::vector<Merge> merges;
  if (n <= 1) return Dendrogram{n, std::move(merges)};

  struct Cluster {
    std::vector<std::size_t> leaves;
    std::size_t node_id;
  };
  std::vector<Cluster> clusters;
  clusters.reserve(n);
  for (std::size_t i = 0; i < n; ++i) clusters.push_back({{i}, i});

  // Complete linkage: the largest pairwise distance between the clusters.
  const auto linkage_distance = [&](const Cluster& a, const Cluster& b) {
    double acc = 0.0;
    for (std::size_t x : a.leaves) {
      for (std::size_t y : b.leaves) {
        acc = std::max(acc, distance(points[x], points[y]));
      }
    }
    return acc;
  };

  while (clusters.size() > 1) {
    double best = std::numeric_limits<double>::infinity();
    std::size_t bi = 0;
    std::size_t bj = 1;
    for (std::size_t i = 0; i < clusters.size(); ++i) {
      for (std::size_t j = i + 1; j < clusters.size(); ++j) {
        const double d = linkage_distance(clusters[i], clusters[j]);
        if (d < best) {
          best = d;
          bi = i;
          bj = j;
        }
      }
    }
    merges.push_back(Merge{
        .left = clusters[bi].node_id,
        .right = clusters[bj].node_id,
        .height = best,
        .size = clusters[bi].leaves.size() + clusters[bj].leaves.size(),
    });
    clusters[bi].leaves.insert(clusters[bi].leaves.end(), clusters[bj].leaves.begin(),
                               clusters[bj].leaves.end());
    clusters[bi].node_id = n + merges.size() - 1;
    clusters.erase(clusters.begin() + static_cast<std::ptrdiff_t>(bj));
  }
  return Dendrogram{n, std::move(merges)};
}

std::vector<int> cluster_by_threshold(std::span<const FeatureVector> points,
                                      double threshold) {
  return agglomerate(points).cut(threshold);
}

}  // namespace tbp::cluster
