#include "core/region_io.hpp"

#include <fstream>
#include <sstream>
#include <string_view>

#include "support/artifact.hpp"
#include "support/atomic_file.hpp"

namespace tbp::core {
namespace {

constexpr io::ArtifactFormat kFormat{
    .magic = "tbpoint-regions-v2",
    .family = "tbpoint-regions-",
    .kind = "regions",
};

constexpr std::size_t kReserveChunk = 4096;

[[nodiscard]] Status corrupt(const std::string& what) {
  return Status(StatusCode::kCorrupt, "regions: " + what);
}

[[nodiscard]] std::string serialize_body(const RegionTableSet& set) {
  std::ostringstream out;
  out << set.system_occupancy << ' ' << set.tables.size() << '\n';
  for (const RegionTable& table : set.tables) {
    out << "table " << table.n_blocks() << ' ' << table.regions().size() << '\n';
    for (const HomogeneousRegion& region : table.regions()) {
      out << region.region_id << ' ' << region.start_block << ' '
          << region.end_block << ' ' << region.n_epochs << '\n';
    }
  }
  return out.str();
}

[[nodiscard]] Result<RegionTableSet> parse_body(const std::string& body) {
  std::istringstream in(body);
  RegionTableSet set;
  std::size_t n_tables = 0;
  if (!(in >> set.system_occupancy >> n_tables)) {
    return corrupt("unreadable header");
  }
  if (n_tables > kMaxRegionTables) {
    return Status(StatusCode::kTooLarge,
                  "regions: table count " + std::to_string(n_tables) +
                      " exceeds cap " + std::to_string(kMaxRegionTables));
  }

  set.tables.reserve(std::min(n_tables, kReserveChunk));
  for (std::size_t t = 0; t < n_tables; ++t) {
    const std::string at = "table " + std::to_string(t) + ": ";
    std::string tag;
    std::uint32_t n_blocks = 0;
    std::size_t n_regions = 0;
    if (!(in >> tag >> n_blocks >> n_regions) || tag != "table") {
      return corrupt(at + "malformed table header");
    }
    if (n_regions > kMaxRegionsPerTable) {
      return Status(StatusCode::kTooLarge,
                    "regions: " + at + "region count " +
                        std::to_string(n_regions) + " exceeds cap " +
                        std::to_string(kMaxRegionsPerTable));
    }
    std::vector<HomogeneousRegion> regions;
    regions.reserve(std::min(n_regions, kReserveChunk));
    for (std::size_t r = 0; r < n_regions; ++r) {
      HomogeneousRegion region;
      if (!(in >> region.region_id >> region.start_block >> region.end_block >>
            region.n_epochs)) {
        return corrupt(at + "region record " + std::to_string(r) +
                       " unreadable");
      }
      if (region.start_block > region.end_block || region.end_block >= n_blocks) {
        // Corrupt ranges must not reach RegionTable.
        return corrupt(at + "region " + std::to_string(r) +
                       " has an out-of-range block interval");
      }
      regions.push_back(region);
    }
    // Regions must be sorted and disjoint (RegionTable's precondition).
    for (std::size_t r = 1; r < regions.size(); ++r) {
      if (regions[r].start_block <= regions[r - 1].end_block) {
        return corrupt(at + "regions overlap or are unsorted at record " +
                       std::to_string(r));
      }
    }
    set.tables.emplace_back(n_blocks, std::move(regions));
  }
  std::string extra;
  if (in >> extra) return corrupt("trailing garbage after last record");
  return set;
}

[[nodiscard]] Result<RegionTableSet> parse_text(std::string_view text) {
  Result<std::string> body = io::unseal_artifact(text, kFormat);
  if (!body.has_value()) return body.status();
  return parse_body(*body);
}

}  // namespace

void save_region_tables(const RegionTableSet& set, std::ostream& out) {
  out << io::seal_artifact(kFormat.magic, serialize_body(set));
}

Status save_region_tables_file(const RegionTableSet& set,
                               const std::string& path) {
  return io::write_file_atomic(
      path, io::seal_artifact(kFormat.magic, serialize_body(set)));
}

Result<RegionTableSet> load_region_tables(std::istream& in) {
  Result<std::string> text = io::read_stream_limited(in);
  if (!text.has_value()) return text.status();
  return parse_text(*text);
}

Result<RegionTableSet> load_region_tables_file(const std::string& path) {
  Result<std::string> text = io::read_file_limited(path);
  if (!text.has_value()) return text.status();
  return parse_text(*text);
}

}  // namespace tbp::core
