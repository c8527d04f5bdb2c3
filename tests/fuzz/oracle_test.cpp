// Differential-oracle behavior: clean specs pass every stage, and each
// oracle trips on its own class of injected violation.
#include "fuzz/oracle.hpp"

#include <string>

#include <gtest/gtest.h>

#include "fuzz/generate.hpp"
#include "sim/config.hpp"

namespace tbp::fuzz {
namespace {

// The calibration sweep's worst-accuracy seed (4.75% TBPoint error with
// default limits): guaranteed nonzero error, so a zero bound must trip.
constexpr std::uint64_t kHighErrorSeed = 0x8c15cfeb7fe6f796ULL;

sim::GpuConfig small_config() { return sim::scaled_config(48, 4); }

/// Accuracy/counts/trace only: cheap bounds for single-stage tests.
OracleBounds serial_bounds() {
  OracleBounds bounds;
  bounds.run_parallel = false;
  return bounds;
}

TEST(OracleTest, CleanSpecPassesAllStages) {
  const workloads::WorkloadSpec spec = generate_spec(kHighErrorSeed);
  OracleBounds bounds;  // every stage on
  bounds.parallel_jobs = 2;
  const OracleReport report = check_workload(spec, small_config(), bounds);
  EXPECT_TRUE(report.ok()) << report.violations.front().detail;
  EXPECT_EQ(report.violation_tag(), "none");
  EXPECT_GT(report.row.total_warp_insts, 0u);
}

TEST(OracleTest, ZeroBoundTripsAccuracyWithAttribution) {
  const workloads::WorkloadSpec spec = generate_spec(kHighErrorSeed);
  OracleBounds bounds = serial_bounds();
  bounds.max_tbpoint_err_pct = 0.0;
  const OracleReport report = check_workload(spec, small_config(), bounds);
  ASSERT_FALSE(report.ok());
  EXPECT_EQ(report.violation_tag(), "accuracy");
  const OracleViolation& v = report.violations.front();
  EXPECT_EQ(v.stage, OracleStage::kAccuracy);
  // attribute_errors names the dominant pipeline stage in the violation.
  EXPECT_TRUE(v.attributed_stage == "inter-launch" ||
              v.attributed_stage == "warm-up" ||
              v.attributed_stage == "reconstruction")
      << "attributed: '" << v.attributed_stage << "'";
  EXPECT_NE(v.detail.find("dominant component"), std::string::npos) << v.detail;
}

TEST(OracleTest, CountMismatchTripsCountsStage) {
  harness::ExperimentRow row;
  row.total_warp_insts = 1000;
  row.full_retired_warp_insts = 999;
  std::vector<OracleViolation> violations;
  check_counts(row, violations);
  ASSERT_EQ(violations.size(), 1u);
  EXPECT_EQ(violations.front().stage, OracleStage::kCounts);

  row.full_retired_warp_insts = 1000;
  violations.clear();
  check_counts(row, violations);
  EXPECT_TRUE(violations.empty());
}

TEST(OracleTest, RowDivergenceTripsParallelStage) {
  harness::ExperimentRow serial;
  serial.workload = "w";
  harness::ExperimentRow parallel = serial;
  std::vector<OracleViolation> violations;
  check_parallel(serial, parallel, violations);
  EXPECT_TRUE(violations.empty());

  parallel.tbpoint.ipc = 1.0;  // any jobs-dependent result is a violation
  check_parallel(serial, parallel, violations);
  ASSERT_EQ(violations.size(), 1u);
  EXPECT_EQ(violations.front().stage, OracleStage::kParallel);
  EXPECT_NE(violations.front().detail.find("diverge at byte"),
            std::string::npos);
}

TEST(OracleTest, InvalidSpecIsReportedNotBuilt) {
  workloads::WorkloadSpec spec = generate_spec(kHighErrorSeed);
  spec.launches.front().threads_per_block = 7;
  const OracleReport report =
      check_workload(spec, small_config(), serial_bounds());
  ASSERT_FALSE(report.ok());
  EXPECT_EQ(report.violations.front().stage, OracleStage::kTrace);
  EXPECT_NE(report.violations.front().detail.find("invalid spec"),
            std::string::npos);
}

TEST(OracleTest, ViolationTagJoinsStagesInOrder) {
  OracleReport report;
  report.violations.push_back({OracleStage::kParallel, "p", {}});
  report.violations.push_back({OracleStage::kAccuracy, "a", {}});
  report.violations.push_back({OracleStage::kParallel, "p2", {}});
  EXPECT_EQ(report.violation_tag(), "accuracy+parallel");
}

}  // namespace
}  // namespace tbp::fuzz
