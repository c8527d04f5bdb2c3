// Shrinker behavior: a failing spec is reduced to a strictly smaller spec
// that still fails the same oracle stage, the procedure is deterministic,
// and a passing spec is returned untouched.
#include "fuzz/shrink.hpp"

#include <gtest/gtest.h>

#include "fuzz/generate.hpp"
#include "fuzz/spec_io.hpp"
#include "obs/report.hpp"
#include "sim/config.hpp"

namespace tbp::fuzz {
namespace {

constexpr std::uint64_t kHighErrorSeed = 0x8c15cfeb7fe6f796ULL;

sim::GpuConfig small_config() { return sim::scaled_config(48, 4); }

/// An always-failing setup: zero accuracy bound against a seed with known
/// nonzero TBPoint error (the other stages are off, so shrink re-checks
/// exactly one comparison per candidate).
OracleBounds failing_bounds() {
  OracleBounds bounds;
  bounds.max_tbpoint_err_pct = 0.0;
  bounds.run_parallel = false;
  return bounds;
}

TEST(ShrinkTest, ReducesAFailingSpecAndPreservesTheFailure) {
  const workloads::WorkloadSpec spec = generate_spec(kHighErrorSeed);
  ShrinkOptions options;
  options.max_attempts = 16;
  const ShrinkResult result =
      shrink_spec(spec, small_config(), failing_bounds(), options);

  EXPECT_TRUE(result.reduced);
  EXPECT_LT(shrink_cost(result.spec), shrink_cost(spec));
  EXPECT_LE(result.attempts, options.max_attempts);
  // The minimized spec still fails the *same* stage.
  ASSERT_FALSE(result.report.ok());
  EXPECT_EQ(result.report.violations.front().stage, OracleStage::kAccuracy);
  // And it is still a valid spec a reproducer file could carry.
  EXPECT_TRUE(workloads::validate_spec(result.spec).ok());
}

TEST(ShrinkTest, IsDeterministic) {
  const workloads::WorkloadSpec spec = generate_spec(kHighErrorSeed);
  ShrinkOptions options;
  options.max_attempts = 10;
  const ShrinkResult a =
      shrink_spec(spec, small_config(), failing_bounds(), options);
  const ShrinkResult b =
      shrink_spec(spec, small_config(), failing_bounds(), options);
  EXPECT_EQ(obs::json_serialize(spec_to_value(a.spec)),
            obs::json_serialize(spec_to_value(b.spec)));
  EXPECT_EQ(a.attempts, b.attempts);
}

TEST(ShrinkTest, PassingSpecIsReturnedUnchanged) {
  const workloads::WorkloadSpec spec = generate_spec(kHighErrorSeed);
  OracleBounds bounds = failing_bounds();
  bounds.max_tbpoint_err_pct = 100.0;  // nothing fails
  const ShrinkResult result = shrink_spec(spec, small_config(), bounds);
  EXPECT_FALSE(result.reduced);
  EXPECT_EQ(result.attempts, 1u);
  EXPECT_TRUE(result.report.ok());
  EXPECT_EQ(obs::json_serialize(spec_to_value(result.spec)),
            obs::json_serialize(spec_to_value(spec)));
}

TEST(ShrinkTest, CostIsMonotoneInEveryMoveFamily) {
  workloads::WorkloadSpec spec = generate_spec(kHighErrorSeed);
  const auto base = shrink_cost(spec);

  workloads::WorkloadSpec fewer = spec;
  fewer.launches.pop_back();
  if (!fewer.launches.empty()) {
    EXPECT_LT(shrink_cost(fewer), base);
  }

  workloads::WorkloadSpec halved = spec;
  if (halved.launches.front().n_blocks > 1) {
    halved.launches.front().n_blocks /= 2;
    EXPECT_LT(shrink_cost(halved), base);
  }

  workloads::WorkloadSpec flat = spec;
  for (workloads::LaunchSpec& l : flat.launches) {
    l.pattern = workloads::BlockPattern::kRegular;
    l.branch_divergence = 0.0;
    l.address = trace::AddressPattern::kStreaming;
    l.lines_per_access = 1;
    l.barrier_per_iteration = false;
  }
  EXPECT_LE(shrink_cost(flat), base);
}

}  // namespace
}  // namespace tbp::fuzz
