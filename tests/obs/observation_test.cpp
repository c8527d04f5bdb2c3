// Observation-session tests against a real simulation: the pure-observer
// contract (attaching metrics/trace never changes a single simulated
// cycle), the per-SM stall-cycle accounting identity, the sorted-key
// merge that makes exported files independent of registration order, and
// the trace processes that merge numbers and names by key.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <optional>
#include <regex>
#include <sstream>
#include <string>
#include <vector>

#include "harness/experiment.hpp"
#include "obs/export.hpp"
#include "sim/config.hpp"
#include "sim/gpu.hpp"
#include "trace/generator.hpp"
#include "workloads/workload.hpp"

namespace tbp::obs {
namespace {

trace::BlockBehavior default_behavior() {
  trace::BlockBehavior b;
  b.loop_iterations = 4;
  b.alu_per_iteration = 3;
  b.mem_per_iteration = 1;
  b.stores_per_iteration = 1;
  b.lines_per_access = 2;
  b.pattern = trace::AddressPattern::kStreaming;
  return b;
}

trace::SyntheticLaunch make_launch(std::uint32_t n_blocks,
                                   std::uint64_t seed = 11) {
  const trace::BlockBehavior behavior = default_behavior();
  return trace::SyntheticLaunch(
      trace::make_synthetic_kernel_info("observation_test"), n_blocks, seed,
      [behavior](std::uint32_t) { return behavior; });
}

sim::GpuConfig small_config() {
  sim::GpuConfig config = sim::fermi_config();
  config.n_sms = 2;
  return config;
}

/// Runs the launch once unobserved and once with metrics+trace attached and
/// returns both results for field-by-field comparison.
struct ObservedPair {
  sim::LaunchResult plain;
  sim::LaunchResult observed;
  MetricsSnapshot metrics;
  std::vector<TraceEvent> trace;
};

ObservedPair run_pair(std::uint32_t n_blocks) {
  const trace::SyntheticLaunch launch = make_launch(n_blocks);
  const sim::GpuConfig config = small_config();

  ObservedPair pair;
  {
    sim::GpuSimulator simulator(config);
    pair.plain = simulator.run_launch(launch);
  }
  Observation session(/*metrics_on=*/true, /*trace_on=*/true);
  {
    sim::GpuSimulator simulator(config);
    sim::RunOptions options;
    options.observe = sim::observe_launch(&session, "launch/000000");
    pair.observed = simulator.run_launch(launch, options);
  }
  pair.metrics = session.merged_metrics();
  pair.trace = session.merged_trace();
  return pair;
}

TEST(ObservationTest, ObservingNeverChangesTheSimulation) {
  const ObservedPair pair = run_pair(24);
  const sim::LaunchResult& a = pair.plain;
  const sim::LaunchResult& b = pair.observed;

  EXPECT_EQ(a.cycles, b.cycles);
  EXPECT_EQ(a.sim_warp_insts, b.sim_warp_insts);
  EXPECT_EQ(a.sim_thread_insts, b.sim_thread_insts);
  EXPECT_EQ(a.tb_units.size(), b.tb_units.size());
  EXPECT_EQ(a.fixed_units.size(), b.fixed_units.size());
  EXPECT_EQ(a.mem.l1.hits, b.mem.l1.hits);
  EXPECT_EQ(a.mem.l1.misses, b.mem.l1.misses);
  EXPECT_EQ(a.mem.l2.hits, b.mem.l2.hits);
  EXPECT_EQ(a.mem.l2.misses, b.mem.l2.misses);
  EXPECT_EQ(a.mem.dram.row_hits, b.mem.dram.row_hits);
  EXPECT_EQ(a.mem.dram.row_misses, b.mem.dram.row_misses);
}

TEST(ObservationTest, StallCyclesAccountForEveryCycle) {
  const ObservedPair pair = run_pair(24);
  const sim::GpuConfig config = small_config();

  // Per SM: issued + every stall cause == launch cycles.  The accounting
  // classifies each cycle into exactly one bucket, so the breakdown must
  // tile the launch with no gap and no double counting.
  for (std::uint32_t s = 0; s < config.n_sms; ++s) {
    char prefix[32];
    std::snprintf(prefix, sizeof prefix, "sim.sm.%02u.", s);
    const std::string p(prefix);
    std::uint64_t accounted = pair.metrics.counter(p + "issued_cycles").value_or(0);
    for (const char* cause :
         {"memory", "scoreboard", "barrier", "idle", "wedged", "other"}) {
      accounted +=
          pair.metrics.counter(p + "stall." + cause).value_or(0);
    }
    EXPECT_EQ(accounted, pair.observed.cycles) << "SM " << s;
  }

  // Cache counters mirror the LaunchResult's own memory stats.
  EXPECT_EQ(pair.metrics.counter("sim.l1.hits"), pair.observed.mem.l1.hits);
  EXPECT_EQ(pair.metrics.counter("sim.l1.misses"), pair.observed.mem.l1.misses);
  EXPECT_EQ(pair.metrics.counter("sim.l2.hits"), pair.observed.mem.l2.hits);
  EXPECT_EQ(pair.metrics.counter("sim.dram.row_hits"),
            pair.observed.mem.dram.row_hits);
  EXPECT_EQ(pair.metrics.counter("sim.launch.cycles"), pair.observed.cycles);
  EXPECT_EQ(pair.metrics.counter("sim.launch.warp_insts"),
            pair.observed.sim_warp_insts);

  // The FR-FCFS queue-depth histogram saw one sample per scheduling
  // decision.
  const Histogram* depth = pair.metrics.histogram_named("sim.dram.queue_depth");
  ASSERT_NE(depth, nullptr);
  EXPECT_EQ(depth->total(),
            pair.metrics.counter("sim.dram.scheduling_decisions").value_or(0));
}

TEST(ObservationTest, MshrPressureCountersAreExported) {
  // Starved MSHR pools at both levels: every counter in the export must
  // mirror the LaunchResult's own stats, and the scenario must actually
  // produce pressure (nonzero) for the mirror check to mean anything.
  const trace::SyntheticLaunch launch = make_launch(24);
  sim::GpuConfig config = small_config();
  config.l1_mshrs = 1;
  config.l2_mshrs = 1;

  Observation session(/*metrics_on=*/true, /*trace_on=*/false);
  sim::GpuSimulator simulator(config);
  sim::RunOptions options;
  options.observe = sim::observe_launch(&session, "launch/000000");
  const sim::LaunchResult result = simulator.run_launch(launch, options);
  const MetricsSnapshot metrics = session.merged_metrics();

  EXPECT_GT(result.mem.l1_mshr_stalls, 0u);
  EXPECT_GT(result.mem.l2_mshr_overflows, 0u);
  EXPECT_EQ(metrics.counter("sim.l1.mshr_stalls"), result.mem.l1_mshr_stalls);
  EXPECT_EQ(metrics.counter("sim.l1.mshr_merges"), result.mem.l1_mshr_merges);
  EXPECT_EQ(metrics.counter("sim.l2.mshr_stalls"), result.mem.l2_mshr_overflows);
  EXPECT_EQ(metrics.counter("sim.l2.mshr_merges"), result.mem.l2_mshr_merges);
}

TEST(ObservationTest, TraceCoversEveryBlock) {
  const std::uint32_t n_blocks = 24;
  const ObservedPair pair = run_pair(n_blocks);

  std::uint64_t tb_spans = 0;
  for (const TraceEvent& e : pair.trace) {
    if (e.ph == 'X' && e.cat == "tb") {
      ++tb_spans;
      EXPECT_LE(e.ts + e.dur, pair.observed.cycles);
    }
  }
  EXPECT_EQ(tb_spans, n_blocks);
}

TEST(ObservationTest, MergeIsIndependentOfRegistrationOrder) {
  auto record = [](Observation& session, const std::vector<std::string>& keys) {
    // Per-key deltas derived from the key so shards differ.
    for (const std::string& key : keys) {
      MetricsShard* shard = session.metrics_shard(key);
      ASSERT_NE(shard, nullptr);
      shard->add("events", key.size());
      shard->add("key." + key, 1);
      TraceBuffer* buffer = session.trace_buffer(key);
      ASSERT_NE(buffer, nullptr);
      buffer->instant(key, "test", 0, key.size());
    }
  };

  Observation forward(true, true);
  record(forward, {"a/000000", "a/000001", "b/000000"});
  Observation reverse(true, true);
  record(reverse, {"b/000000", "a/000001", "a/000000"});

  EXPECT_EQ(metrics_to_json(forward.merged_metrics()),
            metrics_to_json(reverse.merged_metrics()));

  std::ostringstream fwd_doc;
  std::ostringstream rev_doc;
  write_chrome_trace(forward.merged_trace(), fwd_doc);
  write_chrome_trace(reverse.merged_trace(), rev_doc);
  EXPECT_EQ(fwd_doc.str(), rev_doc.str());

  // Prefix filtering selects exactly the matching shards.
  const MetricsSnapshot only_a = forward.merged_metrics("a/");
  EXPECT_EQ(only_a.counter("key.a/000000"), std::uint64_t{1});
  EXPECT_EQ(only_a.counter("key.b/000000"), std::nullopt);
}

TEST(ObservationTest, TraceProcessesAreNamedByTheirKeys) {
  // Two comparison rows share one trace session and choose no trace ids:
  // the merge numbers every buffer and names it after its key.
  Observation session(/*metrics_on=*/false, /*trace_on=*/true);
  harness::ComparisonOptions options;
  options.target_units = 60;
  options.observe = &session;
  workloads::WorkloadScale scale;
  scale.divisor = 64;
  std::map<std::string, workloads::Workload> built;
  std::map<std::string, harness::ExperimentRow> rows;
  for (const char* name : {"stream", "hotspot"}) {
    built.emplace(name, workloads::make_workload(name, scale));
    rows.emplace(name, harness::run_comparison(built.at(name),
                                               sim::fermi_config(), options));
  }

  // Each pid's events are one contiguous run, pids count up from 0, and
  // each run opens with the one process_name of its pid.
  const std::vector<TraceEvent> events = session.merged_trace();
  std::vector<std::string> names;  // by pid
  std::map<std::string, std::uint64_t> tb_spans;  // by process name
  for (const TraceEvent& e : events) {
    if (e.pid == names.size()) {
      ASSERT_EQ(e.name, "process_name") << "pid " << e.pid;
      ASSERT_EQ(e.args.size(), 1u);
      names.push_back(e.args[0].second);
      continue;
    }
    ASSERT_EQ(e.pid + 1, names.size()) << "pid " << e.pid << " is split";
    EXPECT_NE(e.name, "process_name") << "pid " << e.pid << " named twice";
    if (e.ph == 'X' && e.cat == "tb") ++tb_spans[names.back()];
  }

  // The names are the keys, in sorted key order: one per full launch and
  // one per representative of each row.
  EXPECT_TRUE(std::is_sorted(names.begin(), names.end()));
  EXPECT_EQ(std::adjacent_find(names.begin(), names.end()), names.end());
  const std::regex key_form(R"re("(stream|hotspot)/(full|tbp/rep)/(\d{6})")re");
  std::map<std::string, std::size_t> full_launches;
  std::map<std::string, std::size_t> representatives;
  for (const std::string& name : names) {
    std::smatch match;
    ASSERT_TRUE(std::regex_match(name, match, key_form)) << name;
    if (match[2] == "tbp/rep") {
      ++representatives[match[1]];
      continue;
    }
    ++full_launches[match[1]];
    // A full launch's process holds exactly its own launch's blocks, so
    // no process mixes the two rows.
    const std::size_t launch = std::stoul(match[3]);
    const workloads::Workload& workload = built.at(match[1]);
    ASSERT_LT(launch, workload.launches.size()) << name;
    EXPECT_EQ(tb_spans[name], workload.launches[launch]->n_blocks()) << name;
  }
  for (const auto& [name, row] : rows) {
    EXPECT_EQ(full_launches[name], row.n_launches) << name;
    EXPECT_EQ(representatives[name], row.tbp_clusters) << name;
  }
}

TEST(ObservationTest, DisabledSessionHandsOutNulls) {
  Observation off(false, false);
  EXPECT_EQ(off.metrics_shard("k"), nullptr);
  EXPECT_EQ(off.trace_buffer("k"), nullptr);
  EXPECT_TRUE(off.merged_metrics().counters.empty());
  EXPECT_TRUE(off.merged_trace().empty());

  Observation metrics_only(true, false);
  EXPECT_NE(metrics_only.metrics_shard("k"), nullptr);
  EXPECT_EQ(metrics_only.trace_buffer("k"), nullptr);
}

TEST(ObservationTest, FileWritersProduceTheInMemoryDocuments) {
  Observation session(true, true);
  MetricsShard* shard = session.metrics_shard("k");
  ASSERT_NE(shard, nullptr);
  shard->add("c", 3);
  TraceBuffer* buffer = session.trace_buffer("k");
  ASSERT_NE(buffer, nullptr);
  buffer->instant("mark", "test", 0, 1);

  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() / "tbp_observation_test";
  std::filesystem::create_directories(dir);
  const std::string metrics_path = (dir / "metrics.json").string();
  const std::string trace_path = (dir / "trace.json").string();

  const MetricsSnapshot snapshot = session.merged_metrics();
  ASSERT_TRUE(write_metrics_file(snapshot, metrics_path).ok());
  const std::vector<TraceEvent> events = session.merged_trace();
  ASSERT_TRUE(write_trace_file(events, trace_path).ok());

  auto slurp = [](const std::string& path) {
    std::ifstream in(path, std::ios::binary);
    std::ostringstream contents;
    contents << in.rdbuf();
    return contents.str();
  };
  EXPECT_EQ(slurp(metrics_path), metrics_to_json(snapshot));
  std::ostringstream trace_doc;
  write_chrome_trace(events, trace_doc);
  EXPECT_EQ(slurp(trace_path), trace_doc.str());

  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace tbp::obs
