// Homogeneous region identification (paper Section IV-B1).
//
// Epoch intra-feature vectors are clustered hierarchically (sigma = 0.2);
// epochs whose variation factor exceeds the threshold (0.3) contain outlier
// blocks and are evicted into their own singleton clusters; maximal runs of
// consecutive epochs sharing a cluster id become homogeneous regions, which
// are stored block-by-block in the homogeneous region table (Table III).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "core/epoch.hpp"
#include "profile/profiler.hpp"

namespace tbp::core {

struct IntraLaunchOptions {
  double distance_threshold = 0.2;         ///< paper: sigma = 0.2 for intra-launch
  double variation_factor_threshold = 0.3; ///< paper: VF = 0.3
  /// Minimum region length in epochs for the region to enter the table.
  /// Shorter runs cannot amortize a warming period, so sampling them buys
  /// nothing; their blocks are simulated as usual.
  std::uint32_t min_region_epochs = 3;
};

/// Table III row: a block-id range [start_block, end_block] and its region.
struct HomogeneousRegion {
  int region_id = 0;
  std::uint32_t start_block = 0;
  std::uint32_t end_block = 0;  ///< inclusive, as in Table III
  std::uint32_t n_epochs = 0;
};

/// The homogeneous region table: region membership per thread block.
class RegionTable {
 public:
  RegionTable() = default;
  RegionTable(std::uint32_t n_blocks, std::vector<HomogeneousRegion> regions);

  /// Region id of a block, or kNoRegion if the block is not in any region.
  [[nodiscard]] int region_of(std::uint32_t block_id) const noexcept;

  [[nodiscard]] std::span<const HomogeneousRegion> regions() const noexcept {
    return regions_;
  }
  [[nodiscard]] std::uint32_t n_blocks() const noexcept { return n_blocks_; }
  /// Total blocks covered by some region.
  [[nodiscard]] std::uint64_t blocks_in_regions() const noexcept;

  static constexpr int kNoRegion = -1;

 private:
  std::uint32_t n_blocks_ = 0;
  std::vector<HomogeneousRegion> regions_;  ///< sorted, non-overlapping
  std::vector<int> region_of_block_;
};

struct RegionIdentification {
  std::vector<Epoch> epochs;
  std::vector<int> cluster_of_epoch;  ///< after outlier eviction
  std::vector<bool> epoch_is_outlier;
  RegionTable table;
};

/// Full intra-launch identification pipeline for one launch profile.
[[nodiscard]] RegionIdentification identify_regions(
    const profile::LaunchProfile& launch, std::uint32_t system_occupancy,
    const IntraLaunchOptions& options = {});

}  // namespace tbp::core
