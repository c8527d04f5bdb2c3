// Campaign-level acceptance: the bounded PR-gate campaign passes, campaign
// results are byte-identical across --jobs values, replaying a seed is
// deterministic, and the pinned regression corpus stays green under every
// oracle.
#include "fuzz/campaign.hpp"

#include <fstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "harness/cli.hpp"
#include "sim/config.hpp"

namespace tbp::fuzz {
namespace {

sim::GpuConfig small_config() { return sim::scaled_config(48, 4); }

CampaignOptions gate_options() {
  CampaignOptions options;
  options.bounds.parallel_jobs = 2;
  return options;
}

std::string campaign_bytes(const CampaignOptions& options,
                           const CampaignResult& result) {
  return obs::json_serialize(campaign_to_value(options, result));
}

// The PR-gate budget: 25 fresh seeds through every oracle (trace validity,
// accuracy-with-attribution, count equality, serial-vs-parallel byte
// identity).  A failure here is a real pipeline regression;
// `tbp-fuzz replay <seed>` reproduces it standalone.
TEST(CampaignTest, BoundedGateCampaignPasses) {
  const CampaignOptions options = gate_options();
  ASSERT_GE(options.n_seeds, 25u);
  const CampaignResult result = run_campaign(small_config(), options);
  ASSERT_EQ(result.outcomes.size(), options.n_seeds);
  for (const SeedOutcome& outcome : result.outcomes) {
    EXPECT_TRUE(outcome.ok)
        << "seed " << outcome.seed << " [" << outcome.violation_tag
        << "]: " << outcome.violations.front().detail;
  }
  EXPECT_TRUE(result.ok());
}

TEST(CampaignTest, ResultIsByteIdenticalAcrossJobs) {
  CampaignOptions options = gate_options();
  options.n_seeds = 4;
  options.jobs = 1;
  const std::string serial =
      campaign_bytes(options, run_campaign(small_config(), options));
  options.jobs = 3;
  const std::string parallel =
      campaign_bytes(options, run_campaign(small_config(), options));
  // jobs is not part of campaign_to_value, so the bytes must match exactly.
  EXPECT_EQ(serial, parallel);
}

TEST(CampaignTest, CheckSeedIsDeterministic) {
  const CampaignOptions options = gate_options();
  const std::uint64_t seed = 0x424a9825bfca8559ULL;
  const SeedOutcome a = check_seed(seed, small_config(), options);
  const SeedOutcome b = check_seed(seed, small_config(), options);
  EXPECT_EQ(a.ok, b.ok);
  EXPECT_EQ(a.violation_tag, b.violation_tag);
  EXPECT_EQ(a.tbpoint_err_pct, b.tbpoint_err_pct);
}

TEST(CampaignTest, PinnedCorpusStaysGreen) {
  const std::string path =
      std::string(TBP_FUZZ_CORPUS_DIR) + "/pinned_seeds.txt";
  std::ifstream in(path);
  ASSERT_TRUE(in.is_open()) << "cannot open " << path;

  std::vector<std::uint64_t> seeds;
  std::string line;
  while (std::getline(in, line)) {
    const std::size_t start = line.find_first_not_of(" \t");
    if (start == std::string::npos || line[start] == '#') continue;
    const std::size_t end = line.find_last_not_of(" \t\r");
    const Result<std::uint64_t> seed =
        harness::parse_u64(line.substr(start, end - start + 1), /*base=*/0);
    ASSERT_TRUE(seed.ok()) << "bad corpus line: " << line;
    seeds.push_back(*seed);
  }
  ASSERT_GE(seeds.size(), 4u) << "corpus unexpectedly small";

  const CampaignOptions options = gate_options();
  for (const std::uint64_t seed : seeds) {
    const SeedOutcome outcome = check_seed(seed, small_config(), options);
    EXPECT_TRUE(outcome.ok)
        << "pinned seed " << seed << " [" << outcome.violation_tag
        << "]: " << outcome.violations.front().detail;
  }
}

TEST(CampaignTest, FailingSeedIsReportedMinimizedAndSerialized) {
  CampaignOptions options = gate_options();
  options.bounds.max_tbpoint_err_pct = 0.0;  // injected violation
  options.bounds.run_parallel = false;
  options.shrink.max_attempts = 10;

  // The calibration sweep's worst seed: 4.75% error, so the zero bound
  // must trip and leave something for the shrinker to preserve.
  const SeedOutcome outcome =
      check_seed(0x8c15cfeb7fe6f796ULL, small_config(), options);
  ASSERT_FALSE(outcome.ok);
  EXPECT_EQ(outcome.violation_tag, "accuracy");
  EXPECT_TRUE(outcome.shrunk);
  EXPECT_TRUE(workloads::validate_spec(outcome.repro_spec).ok());

  CampaignResult result;
  result.outcomes.push_back(outcome);
  ASSERT_EQ(result.n_failures(), 1u);

  // The summary carries the failure with its spec and attribution.
  const obs::JsonValue summary = campaign_to_value(options, result);
  const obs::JsonValue* failures = summary.find("failures");
  ASSERT_NE(failures, nullptr);
  ASSERT_EQ(failures->items().size(), 1u);
  const obs::JsonValue* details = failures->items().front().find("details");
  ASSERT_NE(details, nullptr);
  ASSERT_FALSE(details->items().empty());
  const obs::JsonValue* attributed =
      details->items().front().find("attributed_stage");
  ASSERT_NE(attributed, nullptr);
  EXPECT_FALSE(attributed->as_string().empty());
}

}  // namespace
}  // namespace tbp::fuzz
