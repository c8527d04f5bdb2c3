#include "baselines/ideal_simpoint.hpp"

#include <algorithm>
#include <cassert>

#include "cluster/feature.hpp"
#include "stats/rng.hpp"

namespace tbp::baselines {

cluster::FeatureVector normalized_bbv(const sim::FixedUnit& unit) {
  cluster::FeatureVector bbv(unit.bbv.size(), 0.0);
  std::uint64_t total = 0;
  for (std::uint32_t count : unit.bbv) total += count;
  if (total == 0) return bbv;
  for (std::size_t i = 0; i < unit.bbv.size(); ++i) {
    bbv[i] = static_cast<double>(unit.bbv[i]) / static_cast<double>(total);
  }
  return bbv;
}

SimpointResult ideal_simpoint(std::span<const sim::FixedUnit> units,
                              const SimpointOptions& options) {
  SimpointResult result;
  if (units.empty()) return result;

  std::vector<cluster::FeatureVector> bbvs;
  bbvs.reserve(units.size());
  for (const sim::FixedUnit& unit : units) bbvs.push_back(normalized_bbv(unit));

  stats::Rng rng(options.seed);
  cluster::BicSelection selection = cluster::kmeans_bic(
      bbvs, options.max_k, rng, options.bic_fraction, options.kmeans);
  result.selected_k = selection.selected_k;
  result.cluster_of_unit = std::move(selection.best.labels);

  const std::vector<std::vector<std::size_t>> members =
      cluster::members_by_cluster(result.cluster_of_unit);

  std::uint64_t total_insts = 0;
  for (const sim::FixedUnit& unit : units) total_insts += unit.warp_insts;
  if (total_insts == 0) return result;

  double predicted_cycles = 0.0;
  std::uint64_t simpoint_insts = 0;
  result.simulation_points.reserve(members.size());
  result.weights.reserve(members.size());
  for (const std::vector<std::size_t>& cluster_members : members) {
    assert(!cluster_members.empty());
    const std::size_t within =
        cluster::nearest_to_centroid(bbvs, cluster_members);
    const std::size_t point = cluster_members[within];
    result.simulation_points.push_back(point);
    result.weights.push_back(static_cast<double>(cluster_members.size()) /
                             static_cast<double>(units.size()));
    simpoint_insts += units[point].warp_insts;

    // Eq. 1 in CPI form: the cluster's instructions run at the simulation
    // point's CPI.
    const double point_ipc = units[point].ipc();
    std::uint64_t cluster_insts = 0;
    for (std::size_t u : cluster_members) cluster_insts += units[u].warp_insts;
    if (point_ipc > 0.0) {
      predicted_cycles += static_cast<double>(cluster_insts) / point_ipc;
    }
  }

  result.predicted_ipc = predicted_cycles == 0.0
                             ? 0.0
                             : static_cast<double>(total_insts) / predicted_cycles;
  result.sample_fraction = static_cast<double>(simpoint_insts) /
                           static_cast<double>(total_insts);
  return result;
}

}  // namespace tbp::baselines
