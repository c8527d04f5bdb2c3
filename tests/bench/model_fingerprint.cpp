// Writes the model fingerprint: what the profiler and the timing simulator
// compute for all 12 Table VI workloads, small enough to pin byte for byte.
//   model_fingerprint OUT
//
// For every launch at the default scale it records the profile's warp
// instructions, thread instructions, memory requests and a crc32 of the
// BBV.  For each workload's first launch and its largest launch (most
// blocks, first on ties) it simulates the first 4 x system-occupancy blocks
// on the default machine, once under round-robin and once under GTO, and
// records every counter and histogram the simulator exports: cycles,
// instructions, caches, MSHRs, DRAM and stall buckets (the per-SM counters
// as one crc32).
//
// The tier-1 ctest model_fingerprint requires OUT to equal
// bench/baselines/model_fingerprint.json, and harness::kModelVersion is
// that file's crc32, so a change to any workload's model or to either
// scheduler moves the key of every stored result.
#include <cstdint>
#include <cstdio>
#include <sstream>
#include <string>
#include <string_view>

#include "harness/cli.hpp"
#include "obs/metrics.hpp"
#include "profile/profiler.hpp"
#include "sim/gpu.hpp"
#include "support/atomic_file.hpp"
#include "support/checksum.hpp"
#include "trace/occupancy.hpp"
#include "workloads/workload.hpp"

namespace {

using namespace tbp;

/// Simulates the blocks below `limit` and skips the rest.
class FirstBlocks final : public sim::SimController {
 public:
  explicit FirstBlocks(std::uint32_t limit) : limit_(limit) {}

  [[nodiscard]] sim::BlockAction on_block_dispatch(std::uint32_t block_id,
                                                   std::uint64_t) override {
    return block_id < limit_ ? sim::BlockAction::kSimulate
                             : sim::BlockAction::kSkip;
  }

 private:
  std::uint32_t limit_;
};

std::string hex32(std::uint32_t value) {
  char buf[16];
  std::snprintf(buf, sizeof buf, "\"%08x\"", value);
  return buf;
}

std::string profile_line(const trace::LaunchTraceSource& launch) {
  const profile::LaunchProfile profile = profile::profile_launch(launch);
  std::string bbv;
  for (std::uint64_t count : profile.bbv) bbv += std::to_string(count) + ",";
  std::ostringstream out;
  out << "[" << profile.total_warp_insts() << ", "
      << profile.total_thread_insts() << ", " << profile.total_mem_requests()
      << ", " << hex32(crc32(bbv)) << "]";
  return out.str();
}

std::string sim_record(const trace::LaunchTraceSource& launch,
                       std::size_t index, sim::WarpScheduler scheduler) {
  sim::GpuConfig config = sim::fermi_config();
  config.scheduler = scheduler;
  const std::uint32_t limit =
      4 * trace::sm_occupancy(launch.kernel(), config.sm_resources) *
      config.n_sms;
  FirstBlocks controller(limit);
  obs::MetricsShard shard;
  sim::RunOptions options;
  options.controller = &controller;
  options.observe.metrics = &shard;
  (void)sim::GpuSimulator(config).run_launch(launch, options);

  std::ostringstream out;
  out << "{\"launch\": " << index << ", \"scheduler\": \""
      << (scheduler == sim::WarpScheduler::kRoundRobin ? "rr" : "gto")
      << "\", \"blocks\": " << limit;
  std::string per_sm;
  for (const auto& [name, value] : shard.counters()) {
    if (std::string_view(name).starts_with("sim.sm.")) {
      per_sm += name + "=" + std::to_string(value) + "\n";
    } else {
      out << ",\n      \"" << name << "\": " << value;
    }
  }
  out << ",\n      \"sim.sm.crc32\": " << hex32(crc32(per_sm));
  for (const auto& [name, hist] : shard.histograms()) {
    out << ",\n      \"" << name << "\": [";
    for (std::size_t i = 0; i < hist.counts().size(); ++i) {
      out << (i > 0 ? ", " : "") << hist.counts()[i];
    }
    out << "]";
  }
  out << "}";
  return out.str();
}

std::string workload_record(const std::string& name) {
  const workloads::Workload workload =
      workloads::make_workload(name, harness::kDefaultScale);
  const std::vector<const trace::LaunchTraceSource*> launches =
      workload.sources();
  std::size_t largest = 0;
  for (std::size_t i = 1; i < launches.size(); ++i) {
    if (launches[i]->n_blocks() > launches[largest]->n_blocks()) largest = i;
  }

  std::ostringstream out;
  out << "  {\"workload\": \"" << name << "\",\n    \"profile\": [";
  for (std::size_t i = 0; i < launches.size(); ++i) {
    out << (i > 0 ? ",\n      " : "\n      ") << profile_line(*launches[i]);
  }
  out << "],\n    \"sims\": [";
  std::vector<std::size_t> picked{0};
  if (largest != 0) picked.push_back(largest);
  const char* sep = "\n    ";
  for (const std::size_t index : picked) {
    for (const sim::WarpScheduler scheduler :
         {sim::WarpScheduler::kRoundRobin,
          sim::WarpScheduler::kGreedyThenOldest}) {
      out << sep << sim_record(*launches[index], index, scheduler);
      sep = ",\n    ";
    }
  }
  out << "]}";
  return out.str();
}

}  // namespace

int main(int argc, char** argv) {
  harness::Args args(argc, argv, "model_fingerprint", "OUT");
  const std::string path = args.positional();
  args.finish();
  if (path.empty()) args.usage_error("missing OUT");

  std::ostringstream out;
  out << "{\"format\": \"tbpoint-model-fingerprint-v1\",\n"
      << " \"scale\": " << harness::kDefaultScale.divisor
      << ", \"seed\": " << harness::kDefaultScale.seed
      << ",\n \"workloads\": [\n";
  const std::vector<std::string>& names = workloads::workload_names();
  for (std::size_t i = 0; i < names.size(); ++i) {
    out << (i > 0 ? ",\n" : "") << workload_record(names[i]);
  }
  out << "\n]}\n";
  const Status written = io::write_file_atomic(path, out.str());
  if (!written.ok()) {
    std::fprintf(stderr, "model_fingerprint: cannot write %s: %s\n",
                 path.c_str(), written.to_string().c_str());
    return 1;
  }
  return 0;
}
