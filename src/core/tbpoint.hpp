// The TBPoint pipeline end to end:
//
//   profile (once, hardware-independent)
//     -> inter-launch clustering  -> representative launches
//     -> per representative: occupancy-sized epochs -> region identification
//     -> sampled simulation under the RegionSampler
//     -> Table IV reconstruction  -> application IPC + sample size
//
// Inter- and intra-launch sampling are orthogonal (paper Section IV) and can
// be enabled independently through TBPointOptions, which is how the Fig. 11
// breakdown and the ablation benches isolate their contributions.
#pragma once

#include <span>
#include <vector>

#include <string>

#include "core/inter_launch.hpp"
#include "core/reconstruction.hpp"
#include "core/region.hpp"
#include "core/region_sampler.hpp"
#include "obs/export.hpp"
#include "profile/profiler.hpp"
#include "sim/config.hpp"
#include "sim/gpu.hpp"
#include "trace/kernel.hpp"

namespace tbp::core {

struct TBPointOptions {
  InterLaunchOptions inter;
  IntraLaunchOptions intra;
  RegionSamplerOptions sampler;
  bool enable_inter = true;
  bool enable_intra = true;
  /// Maximum concurrency for the representative-launch simulations
  /// (1 = serial).  Every representative owns a freshly constructed
  /// simulator and sampler and writes into its own slot, so the run is
  /// bit-identical for every jobs value; jobs is therefore excluded from
  /// the experiment cache key.
  std::size_t jobs = 1;
  /// Optional observability session (null = off).  Each representative
  /// records into its own shard/buffer keyed
  /// "<observe_key_prefix>tbp/rep/<launch index>", so parallel runs merge
  /// deterministically; harness callers set the prefix to "<workload>/" to
  /// keep rows apart in one shared session.
  obs::Observation* observe = nullptr;
  std::string observe_key_prefix;
};

/// Everything TBPoint did for one representative launch.
struct RepresentativeRun {
  std::size_t launch_index = 0;
  RegionIdentification regions;
  sim::LaunchResult sim;
  std::vector<SkippedRegion> skipped;
  LaunchPrediction prediction;
};

struct TBPointRun {
  InterLaunchResult inter;
  std::vector<RepresentativeRun> reps;  ///< parallel to inter.representatives
  ApplicationPrediction app;
};

/// Runs the full pipeline.  `launches[i]` must be the trace source profiled
/// into `profile.launches[i]`.
[[nodiscard]] TBPointRun run_tbpoint(
    std::span<const trace::LaunchTraceSource* const> launches,
    const profile::ApplicationProfile& profile, const sim::GpuConfig& config,
    const TBPointOptions& options = {});

}  // namespace tbp::core
