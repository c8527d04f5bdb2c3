// Homogeneous-region-table (de)serialization.
//
// The region table is the artifact that crosses the profiling/simulation
// boundary in the paper's workflow (Table III): identification happens once
// per (profile, occupancy) pair, and the simulator consults the stored
// table at dispatch time.  Persisting tables lets a design sweep reuse them
// across simulator invocations, and makes them inspectable/diffable.
// v2 files carry a crc32 trailer and are written atomically; any other
// version is a kVersionMismatch.  All counts from disk are capped before any
// allocation.
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

#include "core/region.hpp"
#include "support/status.hpp"

namespace tbp::core {

/// A saved set of region tables, one per launch of an application, tagged
/// with the occupancy they were built for (tables are occupancy-specific —
/// paper Section V-C).
struct RegionTableSet {
  std::uint32_t system_occupancy = 0;
  std::vector<RegionTable> tables;
};

/// Hard caps on counts read from disk (reject-before-resize).
inline constexpr std::size_t kMaxRegionTables = 1u << 16;
inline constexpr std::size_t kMaxRegionsPerTable = 1u << 20;

void save_region_tables(const RegionTableSet& set, std::ostream& out);
/// Atomic (temp file + rename).
[[nodiscard]] Status save_region_tables_file(const RegionTableSet& set,
                                             const std::string& path);

/// Errors: kCorrupt (bad magic, truncation, checksum mismatch, overlapping
/// or out-of-range regions), kVersionMismatch, kTooLarge, kNotFound/kIoError
/// (file variant).
[[nodiscard]] Result<RegionTableSet> load_region_tables(std::istream& in);
[[nodiscard]] Result<RegionTableSet> load_region_tables_file(
    const std::string& path);

}  // namespace tbp::core
