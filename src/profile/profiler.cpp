#include "profile/profiler.hpp"

#include <vector>

#include "stats/descriptive.hpp"
#include "support/parallel.hpp"

namespace tbp::profile {

std::uint64_t LaunchProfile::total_thread_insts() const noexcept {
  std::uint64_t total = 0;
  for (const BlockStats& b : blocks) total += b.thread_insts;
  return total;
}

std::uint64_t LaunchProfile::total_warp_insts() const noexcept {
  std::uint64_t total = 0;
  for (const BlockStats& b : blocks) total += b.warp_insts;
  return total;
}

std::uint64_t LaunchProfile::total_mem_requests() const noexcept {
  std::uint64_t total = 0;
  for (const BlockStats& b : blocks) total += b.mem_requests;
  return total;
}

double LaunchProfile::block_size_cov() const {
  std::vector<double> sizes;
  sizes.reserve(blocks.size());
  for (const BlockStats& b : blocks) {
    sizes.push_back(static_cast<double>(b.thread_insts));
  }
  return stats::coefficient_of_variation(sizes);
}

LaunchProfile profile_launch(const trace::LaunchTraceSource& launch) {
  LaunchProfile profile;
  profile.blocks.resize(launch.n_blocks());
  profile.bbv.assign(launch.kernel().n_basic_blocks, 0);
  for (std::uint32_t b = 0; b < launch.n_blocks(); ++b) {
    profile.blocks[b] = launch.block_stats(b, profile.bbv);
  }
  return profile;
}

ApplicationProfile profile_application(
    std::span<const trace::LaunchTraceSource* const> sources, std::size_t jobs) {
  ApplicationProfile app;
  app.launches.resize(sources.size());
  par::parallel_for(sources.size(), jobs, [&](std::size_t i) {
    app.launches[i] = profile_launch(*sources[i]);
  });
  return app;
}

std::uint64_t ApplicationProfile::total_warp_insts() const noexcept {
  std::uint64_t total = 0;
  for (const LaunchProfile& l : launches) total += l.total_warp_insts();
  return total;
}

std::uint64_t ApplicationProfile::total_thread_insts() const noexcept {
  std::uint64_t total = 0;
  for (const LaunchProfile& l : launches) total += l.total_thread_insts();
  return total;
}

std::uint64_t ApplicationProfile::total_blocks() const noexcept {
  std::uint64_t total = 0;
  for (const LaunchProfile& l : launches) total += l.blocks.size();
  return total;
}

}  // namespace tbp::profile
