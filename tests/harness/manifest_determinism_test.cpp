// The run-manifest byte-identity contract: the --manifest document written
// after a comparison is identical to the byte for every --jobs value,
// because the body holds only deterministic computation results — no wall
// clocks, no jobs count, no completion-order-dependent iteration.  Runs
// under the `parallel` ctest label so the TSan tree covers the shard
// registry traffic feeding the manifest's metrics snapshot.
#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <string>

#include "harness/experiment.hpp"
#include "harness/manifest.hpp"
#include "obs/report.hpp"
#include "sim/config.hpp"
#include "support/atomic_file.hpp"
#include "support/parallel.hpp"
#include "workloads/workload.hpp"

namespace tbp::harness {
namespace {

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

/// The reproducibility slice a bench would put in the manifest's "config"
/// member — notably without the jobs value used to compute the rows.
obs::JsonValue test_config_value() {
  obs::JsonValue out = obs::JsonValue::object();
  out.set("scale_divisor", std::uint64_t{32});
  out.set("seed", std::uint64_t{0x7b90147});
  out.set("workload", std::string("stream"));
  return out;
}

/// Runs the four-way comparison at `jobs` and writes its manifest; returns
/// the file's bytes.
std::string manifest_bytes_at_jobs(std::size_t jobs, const std::string& path) {
  par::set_global_jobs(8);
  obs::Observation session(/*metrics_on=*/true, /*trace_on=*/false);
  ComparisonOptions options;
  options.target_units = 60;
  options.jobs = jobs;
  options.observe = &session;
  const ExperimentRow row =
      run_comparison(small_workload(), small_config(), options);
  const obs::JsonValue body =
      manifest_body("bench", "collect_rows", test_config_value(), {&row, 1},
                    session.merged_metrics());
  EXPECT_TRUE(write_manifest(body, path).ok());
  const Result<std::string> bytes =
      io::read_file_limited(std::filesystem::path(path));
  EXPECT_TRUE(bytes.ok()) << bytes.status().to_string();
  return bytes.ok() ? *bytes : std::string();
}

TEST(ManifestDeterminismTest, BytesIdenticalAcrossJobs) {
  const std::string dir = ::testing::TempDir();
  const std::string serial =
      manifest_bytes_at_jobs(1, dir + "/manifest_jobs1.json");
  const std::string parallel =
      manifest_bytes_at_jobs(4, dir + "/manifest_jobs4.json");
  ASSERT_FALSE(serial.empty());
  EXPECT_EQ(serial, parallel);

  // The contract holds *because* nothing jobs- or clock-dependent reaches
  // the body; pin that directly so a future field addition that breaks the
  // promise fails here with a readable reason, not just a byte mismatch.
  EXPECT_EQ(serial.find("seconds"), std::string::npos)
      << "wall-clock fields belong in BENCH_PERF.json, not the manifest";
  EXPECT_EQ(serial.find("\"jobs\""), std::string::npos);

  // And the written document is a valid sealed manifest end to end.
  const Result<obs::JsonValue> body =
      obs::open_json(serial, obs::kManifestSchema);
  ASSERT_TRUE(body.ok()) << body.status().to_string();
  const obs::JsonValue* workloads = body->find("workloads");
  ASSERT_NE(workloads, nullptr);
  ASSERT_EQ(workloads->items().size(), 1u);
  const obs::JsonValue* attr = workloads->items()[0].find("attribution");
  ASSERT_NE(attr, nullptr);
  EXPECT_TRUE(attr->find("valid")->as_bool());
}

TEST(ManifestDeterminismTest, RepeatedSerialRunsAreStable) {
  const std::string dir = ::testing::TempDir();
  const std::string first =
      manifest_bytes_at_jobs(1, dir + "/manifest_a.json");
  const std::string second =
      manifest_bytes_at_jobs(1, dir + "/manifest_b.json");
  EXPECT_EQ(first, second);
}

}  // namespace
}  // namespace tbp::harness
