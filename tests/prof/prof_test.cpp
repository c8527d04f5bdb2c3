// Unit coverage for the profiling primitives: deterministic percentile
// estimates over fixed-bucket histograms, ProfSession span accounting, the
// ScopedSpan bracket, and the sealed tbp-prof-v1 sidecar roundtrip.
#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <map>
#include <string>

#include "obs/metrics.hpp"
#include "obs/report.hpp"
#include "prof/prof.hpp"
#include "prof/sidecar.hpp"
#include "support/atomic_file.hpp"

namespace tbp::prof {
namespace {

TEST(ProfBucketsTest, BoundsAreStrictlyIncreasing) {
  const auto lat = latency_bounds();
  ASSERT_FALSE(lat.empty());
  EXPECT_EQ(lat.front(), 1u) << "first latency bucket is <= 1us";
  for (std::size_t i = 1; i < lat.size(); ++i) {
    EXPECT_LT(lat[i - 1], lat[i]);
  }
}

TEST(ProfPercentileTest, EmptyHistogramYieldsZero) {
  obs::Histogram hist({1, 2, 4});
  EXPECT_EQ(percentile_upper_bound(hist, 0.5), 0u);
  EXPECT_EQ(percentile_upper_bound(hist, 0.99), 0u);
}

TEST(ProfPercentileTest, PicksFirstBucketReachingTheRank) {
  obs::Histogram hist({10, 20, 40});
  // 6 values <= 10, 3 in (10, 20], 1 in (20, 40].
  for (int i = 0; i < 6; ++i) hist.record(5);
  for (int i = 0; i < 3; ++i) hist.record(15);
  hist.record(30);
  EXPECT_EQ(percentile_upper_bound(hist, 0.50), 10u);  // rank 5 of 10
  EXPECT_EQ(percentile_upper_bound(hist, 0.90), 20u);  // rank 9
  EXPECT_EQ(percentile_upper_bound(hist, 1.00), 40u);  // rank 10
}

TEST(ProfPercentileTest, OverflowValuesSaturateToLastBound) {
  obs::Histogram hist({10, 20});
  hist.record(1000);  // overflow bucket
  EXPECT_EQ(percentile_upper_bound(hist, 0.5), 20u)
      << "overflow saturates to the last bound, not infinity";
}

TEST(ProfSessionTest, SpansAggregateByNameWithPercentiles) {
  ProfSession session;
  session.record_span("svc.sim", 0.001);   // 1000us
  session.record_span("svc.sim", 0.002);   // 2000us
  session.record_span("svc.gc", 0.0001);   // 100us

  const auto spans = session.span_snapshot();
  ASSERT_EQ(spans.size(), 2u);
  const ProfSession::SpanStats& sim = spans.at("svc.sim");
  EXPECT_EQ(sim.count, 2u);
  EXPECT_NEAR(sim.total_seconds, 0.003, 1e-12);
  EXPECT_EQ(sim.latency_us.total(), 2u);
  EXPECT_EQ(spans.at("svc.gc").count, 1u);
  EXPECT_EQ(percentile_upper_bound(sim.latency_us, 1.0), 2048u)
      << "2000us lands in the (1024, 2048] bucket";
}

TEST(ProfSessionTest, ScopedSpanRecordsOnceAndCancelDropsIt) {
  ProfSession session;
  {
    ScopedSpan span(&session, "bracket");
    span.finish();
    span.finish();  // idempotent: destructor must not double-record
  }
  {
    ScopedSpan span(&session, "dropped");
    span.cancel();
  }
  ScopedSpan null_span(nullptr, "no-session");  // must be a safe no-op
  null_span.finish();

  const auto spans = session.span_snapshot();
  ASSERT_EQ(spans.size(), 1u);
  EXPECT_EQ(spans.at("bracket").count, 1u);
}

TEST(ProfSidecarTest, SealedRoundtripPreservesSpans) {
  ProfSession session;
  session.record_span("svc.sim", 0.5);

  const std::string path =
      (std::filesystem::path(::testing::TempDir()) / "prof.json").string();
  ASSERT_TRUE(write_prof_sidecar(session, path).ok());

  const Result<std::string> bytes =
      io::read_file_limited(std::filesystem::path(path));
  ASSERT_TRUE(bytes.ok()) << bytes.status().to_string();
  const Result<obs::JsonValue> body = obs::open_json(*bytes, kProfSchema);
  ASSERT_TRUE(body.ok()) << body.status().to_string();
  EXPECT_EQ(body->find("skew"), nullptr) << "spans are the only block";

  const obs::JsonValue* spans = body->find("spans");
  ASSERT_NE(spans, nullptr);
  const obs::JsonValue* sim = spans->find("svc.sim");
  ASSERT_NE(sim, nullptr);
  EXPECT_EQ(sim->find("count")->as_u64(), 1u);
  EXPECT_NEAR(sim->find("total_seconds")->as_double(), 0.5, 1e-9);
  EXPECT_GT(sim->find("p99_seconds")->as_double(), 0.0);
}

}  // namespace
}  // namespace tbp::prof
