#include "core/region.hpp"

#include <algorithm>
#include <cassert>

#include "cluster/hierarchical.hpp"

namespace tbp::core {

RegionTable::RegionTable(std::uint32_t n_blocks,
                         std::vector<HomogeneousRegion> regions)
    : n_blocks_(n_blocks), regions_(std::move(regions)) {
  region_of_block_.assign(n_blocks, kNoRegion);
  for (const HomogeneousRegion& region : regions_) {
    assert(region.start_block <= region.end_block);
    assert(region.end_block < n_blocks);
    for (std::uint32_t b = region.start_block; b <= region.end_block; ++b) {
      assert(region_of_block_[b] == kNoRegion && "regions must not overlap");
      region_of_block_[b] = region.region_id;
    }
  }
}

int RegionTable::region_of(std::uint32_t block_id) const noexcept {
  if (block_id >= region_of_block_.size()) return kNoRegion;
  return region_of_block_[block_id];
}

std::uint64_t RegionTable::blocks_in_regions() const noexcept {
  std::uint64_t total = 0;
  for (const HomogeneousRegion& region : regions_) {
    total += region.end_block - region.start_block + 1;
  }
  return total;
}

RegionIdentification identify_regions(const profile::LaunchProfile& launch,
                                      std::uint32_t system_occupancy,
                                      const IntraLaunchOptions& options) {
  RegionIdentification out;
  out.epochs = build_epochs(launch, system_occupancy);
  const std::size_t n_epochs = out.epochs.size();
  if (n_epochs == 0) {
    out.table = RegionTable{0, {}};
    return out;
  }

  // Epoch clustering on the 1-D intra-feature vectors (Eq. 5).
  std::vector<cluster::FeatureVector> features;
  features.reserve(n_epochs);
  for (const Epoch& epoch : out.epochs) {
    features.push_back({epoch.avg_stall_probability});
  }
  out.cluster_of_epoch =
      cluster::cluster_by_threshold(features, options.distance_threshold);

  // Outlier eviction: epochs whose variation factor exceeds the threshold
  // get their own singleton clusters so they cannot join a region.
  out.epoch_is_outlier.assign(n_epochs, false);
  int next_cluster =
      n_epochs == 0
          ? 0
          : 1 + *std::max_element(out.cluster_of_epoch.begin(),
                                  out.cluster_of_epoch.end());
  for (std::size_t e = 0; e < n_epochs; ++e) {
    if (out.epochs[e].variance_factor > options.variation_factor_threshold) {
      out.epoch_is_outlier[e] = true;
      out.cluster_of_epoch[e] = next_cluster++;
    }
  }

  // Region construction: maximal runs of consecutive epochs sharing a
  // cluster id, long enough to amortize a warming period.
  std::vector<HomogeneousRegion> regions;
  std::size_t run_start = 0;
  const auto flush_run = [&](std::size_t run_end /*exclusive*/) {
    const auto run_epochs = static_cast<std::uint32_t>(run_end - run_start);
    if (run_epochs >= options.min_region_epochs) {
      regions.push_back(HomogeneousRegion{
          .region_id = static_cast<int>(regions.size()),
          .start_block = out.epochs[run_start].first_block,
          .end_block = out.epochs[run_end - 1].end_block() - 1,
          .n_epochs = run_epochs,
      });
    }
  };
  for (std::size_t e = 1; e < n_epochs; ++e) {
    if (out.cluster_of_epoch[e] != out.cluster_of_epoch[run_start]) {
      flush_run(e);
      run_start = e;
    }
  }
  flush_run(n_epochs);

  out.table =
      RegionTable{static_cast<std::uint32_t>(launch.blocks.size()), std::move(regions)};
  return out;
}

}  // namespace tbp::core
