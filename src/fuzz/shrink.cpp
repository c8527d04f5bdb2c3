#include "fuzz/shrink.hpp"

#include <algorithm>
#include <vector>

namespace tbp::fuzz {
namespace {

/// Per-launch instruction-work proxy; monotone in every size knob the
/// shrinker halves, so halving always strictly reduces cost (until a knob
/// floors at 1, after which the candidate is skipped as not-smaller).
[[nodiscard]] std::uint64_t launch_work(const workloads::LaunchSpec& l) {
  const std::uint64_t warps = l.threads_per_block / 32;
  const std::uint64_t ops = 1ULL + l.alu_per_iteration + l.sfu_per_iteration +
                            l.mem_per_iteration + l.stores_per_iteration +
                            l.shared_per_iteration;
  return static_cast<std::uint64_t>(l.n_blocks) * warps * l.base_iterations *
         ops;
}

[[nodiscard]] std::uint64_t launch_complexity(const workloads::LaunchSpec& l) {
  std::uint64_t knobs = 0;
  if (l.pattern != workloads::BlockPattern::kRegular) ++knobs;
  if (l.branch_divergence > 0.0) ++knobs;
  if (l.address != trace::AddressPattern::kStreaming) ++knobs;
  if (l.lines_per_access > 1) ++knobs;
  if (l.barrier_per_iteration) ++knobs;
  if (l.sfu_per_iteration > 0) ++knobs;
  if (l.shared_per_iteration > 0) ++knobs;
  if (l.stores_per_iteration > 0) ++knobs;
  if (l.working_set_lines > 64) ++knobs;
  return knobs;
}

/// Restricts the bounds to exactly the stages in `stages`, so candidate
/// checks skip the cost of oracles that were not violated to begin with
/// (the parallel stage alone costs two extra full simulations).
[[nodiscard]] OracleBounds restrict_bounds(
    const OracleBounds& bounds, const std::vector<OracleStage>& stages) {
  const auto has = [&](OracleStage stage) {
    return std::find(stages.begin(), stages.end(), stage) != stages.end();
  };
  OracleBounds restricted = bounds;
  restricted.run_trace = bounds.run_trace && has(OracleStage::kTrace);
  restricted.run_accuracy = bounds.run_accuracy && has(OracleStage::kAccuracy);
  restricted.run_counts = bounds.run_counts && has(OracleStage::kCounts);
  restricted.run_parallel = bounds.run_parallel && has(OracleStage::kParallel);
  return restricted;
}

[[nodiscard]] std::vector<OracleStage> violated_stages(
    const OracleReport& report) {
  std::vector<OracleStage> stages;
  for (const OracleViolation& v : report.violations) {
    if (std::find(stages.begin(), stages.end(), v.stage) == stages.end()) {
      stages.push_back(v.stage);
    }
  }
  return stages;
}

/// One knob-flattening move applied to launch `l`; returns false when the
/// launch is already flat in that dimension (candidate would be a no-op).
[[nodiscard]] bool flatten_knob(workloads::LaunchSpec& l, std::size_t knob) {
  switch (knob) {
    case 0:
      if (l.pattern == workloads::BlockPattern::kRegular) return false;
      l.pattern = workloads::BlockPattern::kRegular;
      return true;
    case 1:
      if (l.branch_divergence == 0.0) return false;
      l.branch_divergence = 0.0;
      return true;
    case 2:
      if (l.address == trace::AddressPattern::kStreaming) return false;
      l.address = trace::AddressPattern::kStreaming;
      return true;
    case 3:
      if (l.lines_per_access <= 1) return false;
      l.lines_per_access = 1;
      return true;
    case 4:
      if (!l.barrier_per_iteration) return false;
      l.barrier_per_iteration = false;
      return true;
    case 5:
      if (l.sfu_per_iteration == 0 && l.shared_per_iteration == 0 &&
          l.stores_per_iteration == 0) {
        return false;
      }
      l.sfu_per_iteration = 0;
      l.shared_per_iteration = 0;
      l.stores_per_iteration = 0;
      return true;
    case 6:
      if (l.working_set_lines <= 64) return false;
      l.working_set_lines = 64;
      return true;
    default:
      return false;
  }
}
constexpr std::size_t kNumFlattenKnobs = 7;

}  // namespace

std::pair<std::uint64_t, std::uint64_t> shrink_cost(
    const workloads::WorkloadSpec& spec) {
  std::uint64_t work = 0;
  std::uint64_t complexity = 0;
  for (const workloads::LaunchSpec& l : spec.launches) {
    work += launch_work(l);
    complexity += launch_complexity(l);
  }
  return {work, complexity};
}

ShrinkResult shrink_spec(const workloads::WorkloadSpec& spec,
                         const sim::GpuConfig& config,
                         const OracleBounds& bounds,
                         const ShrinkOptions& options) {
  ShrinkResult result;
  result.spec = spec;
  result.report = check_workload(spec, config, bounds);
  result.attempts = 1;
  if (result.report.ok()) return result;  // nothing to preserve, nothing to do

  const std::vector<OracleStage> target_stages = violated_stages(result.report);
  const OracleBounds check_bounds = restrict_bounds(bounds, target_stages);

  // A candidate survives if any originally-violated stage still fires.
  const auto still_fails = [&](const workloads::WorkloadSpec& candidate,
                               OracleReport& out) {
    if (!workloads::validate_spec(candidate).ok()) return false;
    out = check_workload(candidate, config, check_bounds);
    for (const OracleViolation& v : out.violations) {
      if (std::find(target_stages.begin(), target_stages.end(), v.stage) !=
          target_stages.end()) {
        return true;
      }
    }
    return false;
  };

  // Greedy accept-first-improvement; each accepted move strictly lowers the
  // lexicographic cost, so the loop terminates even without the budget.
  auto cost = shrink_cost(result.spec);
  bool progress = true;
  while (progress && result.attempts < options.max_attempts) {
    progress = false;

    // Enumerate candidates in decreasing order of expected leverage.
    std::vector<workloads::WorkloadSpec> candidates;
    const workloads::WorkloadSpec& cur = result.spec;
    const std::size_t n = cur.launches.size();
    if (n > 1) {
      workloads::WorkloadSpec front = cur;  // keep the front half
      front.launches.resize((n + 1) / 2);
      candidates.push_back(std::move(front));
      workloads::WorkloadSpec back = cur;  // keep the back half
      back.launches.erase(back.launches.begin(),
                          back.launches.begin() +
                              static_cast<std::ptrdiff_t>(n / 2));
      candidates.push_back(std::move(back));
      for (std::size_t i = n; i-- > 0;) {
        workloads::WorkloadSpec one = cur;
        one.launches.erase(one.launches.begin() +
                           static_cast<std::ptrdiff_t>(i));
        candidates.push_back(std::move(one));
      }
    }
    for (std::size_t i = 0; i < n; ++i) {
      if (cur.launches[i].n_blocks > 1) {
        workloads::WorkloadSpec halved = cur;
        halved.launches[i].n_blocks = std::max(1u, halved.launches[i].n_blocks / 2);
        candidates.push_back(std::move(halved));
      }
      if (cur.launches[i].base_iterations > 1) {
        workloads::WorkloadSpec halved = cur;
        halved.launches[i].base_iterations =
            std::max(1u, halved.launches[i].base_iterations / 2);
        candidates.push_back(std::move(halved));
      }
    }
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t knob = 0; knob < kNumFlattenKnobs; ++knob) {
        workloads::WorkloadSpec flat = cur;
        if (!flatten_knob(flat.launches[i], knob)) continue;
        candidates.push_back(std::move(flat));
      }
    }

    for (workloads::WorkloadSpec& candidate : candidates) {
      if (result.attempts >= options.max_attempts) break;
      const auto candidate_cost = shrink_cost(candidate);
      if (candidate_cost >= cost) continue;  // must strictly shrink
      OracleReport candidate_report;
      ++result.attempts;
      if (!still_fails(candidate, candidate_report)) continue;
      result.spec = std::move(candidate);
      result.report = std::move(candidate_report);
      result.reduced = true;
      cost = candidate_cost;
      progress = true;
      break;  // restart candidate enumeration from the smaller spec
    }
  }
  return result;
}

}  // namespace tbp::fuzz
