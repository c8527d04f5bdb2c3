// Observability extensions of the determinism contract (tests/harness/
// parallel_test.cpp): the merged metrics/trace exports are bit-identical
// for every --jobs value, and turning observation on does not perturb a
// single byte of the experiment artifacts (rows, CSV).  Runs under the
// `parallel` ctest label so the TSan tree exercises the shard registry's
// locking too.
#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include "harness/csv.hpp"
#include "harness/experiment.hpp"
#include "obs/export.hpp"
#include "sim/config.hpp"
#include "support/parallel.hpp"
#include "workloads/workload.hpp"

namespace tbp::obs {
namespace {

harness::ComparisonOptions small_options(std::size_t jobs,
                                         Observation* observe) {
  harness::ComparisonOptions options;
  options.target_units = 60;
  options.jobs = jobs;
  options.observe = observe;
  return options;
}

sim::GpuConfig small_config() {
  sim::GpuConfig config = sim::fermi_config();
  config.n_sms = 4;
  return config;
}

workloads::Workload small_workload() {
  workloads::WorkloadScale scale;
  scale.divisor = 32;
  return workloads::make_workload("stream", scale);
}

/// CSV rendering with the wall-clock timing fields zeroed: everything else
/// is covered by the determinism contract.
std::string deterministic_csv(std::vector<harness::ExperimentRow> rows) {
  for (harness::ExperimentRow& row : rows) {
    row.full_sim_seconds = 0.0;
    row.tbp_seconds = 0.0;
  }
  std::ostringstream out;
  harness::write_rows_csv(rows, out);
  return out.str();
}

TEST(ObsDeterminismTest, ExportsAreBitIdenticalAcrossJobs) {
  par::set_global_jobs(8);
  const workloads::Workload workload = small_workload();
  const sim::GpuConfig config = small_config();

  Observation serial_session(/*metrics_on=*/true, /*trace_on=*/true);
  const harness::ExperimentRow serial = harness::run_comparison(
      workload, config, small_options(1, &serial_session));

  Observation parallel_session(/*metrics_on=*/true, /*trace_on=*/true);
  const harness::ExperimentRow parallel = harness::run_comparison(
      workload, config, small_options(8, &parallel_session));

  // The rows themselves agree (the existing contract)...
  EXPECT_EQ(serial.full_ipc, parallel.full_ipc);
  EXPECT_EQ(serial.tbpoint.ipc, parallel.tbpoint.ipc);

  // ...and so do the exported observability documents: shards are keyed by
  // task identity and merged in sorted key order, so completion order never
  // shows through.
  const std::string serial_metrics =
      metrics_to_json(serial_session.merged_metrics());
  const std::string parallel_metrics =
      metrics_to_json(parallel_session.merged_metrics());
  EXPECT_EQ(serial_metrics, parallel_metrics);
  EXPECT_NE(serial_metrics.find("sim.sm.00.issued_cycles"), std::string::npos);
  EXPECT_NE(serial_metrics.find("core.sampler.warm_units"), std::string::npos);

  std::ostringstream serial_trace;
  std::ostringstream parallel_trace;
  write_chrome_trace(serial_session.merged_trace(), serial_trace);
  write_chrome_trace(parallel_session.merged_trace(), parallel_trace);
  EXPECT_EQ(serial_trace.str(), parallel_trace.str());
  EXPECT_FALSE(serial_session.merged_trace().empty());

  // The row carries the same snapshot the session merges to.
  EXPECT_EQ(metrics_to_json(serial.metrics),
            metrics_to_json(serial_session.merged_metrics(workload.name + "/")));
}

TEST(ObsDeterminismTest, ObservationOnOrOffSameArtifacts) {
  par::set_global_jobs(8);
  const workloads::Workload workload = small_workload();
  const sim::GpuConfig config = small_config();

  const harness::ExperimentRow unobserved =
      harness::run_comparison(workload, config, small_options(4, nullptr));

  Observation session(/*metrics_on=*/true, /*trace_on=*/true);
  const harness::ExperimentRow observed =
      harness::run_comparison(workload, config, small_options(4, &session));

  // Metrics are pure observers: every deterministic row field — and hence
  // the CSV artifact — is byte-identical with observation on or off.
  EXPECT_EQ(unobserved.full_ipc, observed.full_ipc);
  EXPECT_EQ(unobserved.random.ipc, observed.random.ipc);
  EXPECT_EQ(unobserved.simpoint.ipc, observed.simpoint.ipc);
  EXPECT_EQ(unobserved.systematic.ipc, observed.systematic.ipc);
  EXPECT_EQ(unobserved.tbpoint.ipc, observed.tbpoint.ipc);
  EXPECT_EQ(unobserved.inter_skip_share, observed.inter_skip_share);
  EXPECT_EQ(unobserved.tbp_clusters, observed.tbp_clusters);
  EXPECT_EQ(unobserved.unit_insts, observed.unit_insts);
  EXPECT_EQ(deterministic_csv({unobserved}), deterministic_csv({observed}));

  // The only difference is the attached snapshot.
  EXPECT_TRUE(unobserved.metrics.counters.empty());
  EXPECT_FALSE(observed.metrics.counters.empty());
}

TEST(ObsDeterminismTest, ConcurrentShardRegistrationIsSafe) {
  // Many tasks asking the session for distinct shards concurrently (the
  // run_comparison pattern) must neither race nor lose shards.  Under the
  // TSan tree this is the locking proof for the registry.
  Observation session(/*metrics_on=*/true, /*trace_on=*/true);
  constexpr std::size_t kTasks = 64;
  par::set_global_jobs(8);
  par::parallel_for(kTasks, 8, [&](std::size_t i) {
    const std::string key = "task/" + key_index(i);
    MetricsShard* shard = session.metrics_shard(key);
    TraceBuffer* buffer = session.trace_buffer(key);
    ASSERT_NE(shard, nullptr);
    ASSERT_NE(buffer, nullptr);
    shard->add("ticks", i + 1);
    buffer->instant("tick", "test", 0, i);
  });
  const MetricsSnapshot snapshot = session.merged_metrics();
  // sum of 1..kTasks
  EXPECT_EQ(snapshot.counter("ticks"), std::uint64_t{kTasks * (kTasks + 1) / 2});
  // Each buffer's tick, after the process_name the merge gives it.
  EXPECT_EQ(session.merged_trace().size(), 2 * kTasks);
}

}  // namespace
}  // namespace tbp::obs
