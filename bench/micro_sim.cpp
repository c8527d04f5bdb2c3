// Google-benchmark microbenchmarks of the simulator substrate: cache
// probes, DRAM scheduling, full-launch simulation throughput, and the
// functional profiler.  These guard the simulation rate that every figure
// bench depends on.
#include <benchmark/benchmark.h>

#include "micro_common.hpp"

#include "profile/profiler.hpp"
#include "sim/cache.hpp"
#include "sim/dram.hpp"
#include "sim/gpu.hpp"
#include "stats/rng.hpp"
#include "trace/generator.hpp"

namespace {

using namespace tbp;

void BM_CacheAccessHit(benchmark::State& state) {
  sim::SetAssocCache cache(sim::fermi_config().l1);
  for (std::uint64_t line = 0; line < 16; ++line) cache.fill(line);
  std::uint64_t line = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(cache.access(line));
    line = (line + 1) % 16;
  }
}
BENCHMARK(BM_CacheAccessHit);

void BM_CacheAccessMissAndFill(benchmark::State& state) {
  sim::SetAssocCache cache(sim::fermi_config().l1);
  std::uint64_t line = 0;
  for (auto _ : state) {
    if (!cache.access(line)) cache.fill(line);
    ++line;
  }
}
BENCHMARK(BM_CacheAccessMissAndFill);

void BM_DramRandomTraffic(benchmark::State& state) {
  const sim::GpuConfig config = sim::fermi_config();
  sim::DramSystem dram(config);
  stats::Rng rng(7);
  std::vector<sim::DramReply> replies;
  std::uint64_t cycle = 0;
  for (auto _ : state) {
    if (cycle % 4 == 0) dram.push(rng.below(1u << 20), false, cycle);
    replies.clear();
    dram.tick(cycle, replies);
    benchmark::DoNotOptimize(replies.size());
    ++cycle;
  }
}
BENCHMARK(BM_DramRandomTraffic);

trace::SyntheticLaunch make_micro_launch(std::uint32_t n_blocks, bool memory_bound) {
  trace::BlockBehavior behavior;
  behavior.loop_iterations = 8;
  behavior.alu_per_iteration = memory_bound ? 2 : 8;
  behavior.mem_per_iteration = memory_bound ? 3 : 1;
  behavior.stores_per_iteration = 1;
  behavior.lines_per_access = memory_bound ? 4 : 1;
  behavior.pattern = memory_bound ? trace::AddressPattern::kRandom
                                  : trace::AddressPattern::kStreaming;
  behavior.working_set_lines = 1u << 15;
  behavior.region_base_line = memory_bound ? (1u << 20) : 0;
  return trace::SyntheticLaunch(trace::make_synthetic_kernel_info("micro"),
                                n_blocks, 42,
                                [behavior](std::uint32_t) { return behavior; });
}

void BM_LaunchSimulationComputeBound(benchmark::State& state) {
  const trace::SyntheticLaunch launch =
      make_micro_launch(static_cast<std::uint32_t>(state.range(0)), false);
  sim::GpuSimulator simulator(sim::fermi_config());
  std::uint64_t insts = 0;
  for (auto _ : state) {
    const sim::LaunchResult result = simulator.run_launch(launch);
    insts += result.sim_warp_insts;
    benchmark::DoNotOptimize(result.cycles);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(insts));
}
BENCHMARK(BM_LaunchSimulationComputeBound)->Arg(128)->Arg(512)
    ->Unit(benchmark::kMillisecond);

void BM_LaunchSimulationMemoryBound(benchmark::State& state) {
  const trace::SyntheticLaunch launch =
      make_micro_launch(static_cast<std::uint32_t>(state.range(0)), true);
  sim::GpuSimulator simulator(sim::fermi_config());
  std::uint64_t insts = 0;
  for (auto _ : state) {
    const sim::LaunchResult result = simulator.run_launch(launch);
    insts += result.sim_warp_insts;
    benchmark::DoNotOptimize(result.cycles);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(insts));
}
BENCHMARK(BM_LaunchSimulationMemoryBound)->Arg(128)->Arg(512)
    ->Unit(benchmark::kMillisecond);

void BM_FunctionalProfiling(benchmark::State& state) {
  const trace::SyntheticLaunch launch = make_micro_launch(256, true);
  std::uint64_t insts = 0;
  for (auto _ : state) {
    const profile::LaunchProfile p = profile::profile_launch(launch);
    insts += p.total_warp_insts();
    benchmark::DoNotOptimize(p.blocks.size());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(insts));
  state.SetLabel("functional profiling vs timing simulation speed gap");
}
BENCHMARK(BM_FunctionalProfiling)->Unit(benchmark::kMillisecond);

// One block per iteration, built and then counted: what the simulator
// generates at dispatch, plus the walk a trace-building profile would take.
void BM_TraceGeneration(benchmark::State& state) {
  const trace::SyntheticLaunch launch = make_micro_launch(256, true);
  std::vector<std::uint64_t> bbv(launch.kernel().n_basic_blocks);
  std::uint32_t block = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        trace::count_block(launch.block_trace(block), bbv).warp_insts);
    block = (block + 1) % launch.n_blocks();
  }
}
BENCHMARK(BM_TraceGeneration);

// The same blocks and counts through the counting sink the profiler uses.
void BM_BlockStats(benchmark::State& state) {
  const trace::SyntheticLaunch launch = make_micro_launch(256, true);
  std::vector<std::uint64_t> bbv(launch.kernel().n_basic_blocks);
  std::uint32_t block = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(launch.block_stats(block, bbv).warp_insts);
    block = (block + 1) % launch.n_blocks();
  }
}
BENCHMARK(BM_BlockStats);

}  // namespace

int main(int argc, char** argv) {
  return tbp::bench::run_micro_bench("micro_sim", argc, argv);
}
