// tbpointd service suite: strict request admission, the spool protocol's
// state machine, and the daemon's dedup contract — a cold batch of N
// identical requests costs exactly one simulation, leaves the store hit
// counter at N-1, and answers every client with bytes identical to what
// `tbpoint_cli compare ... --manifest` writes for the same spec.
#include "service/daemon.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "harness/experiment.hpp"
#include "service/request.hpp"
#include "service/spool.hpp"
#include "store/key.hpp"

namespace tbp::service {
namespace {

namespace fs = std::filesystem;

std::string fresh_dir(const std::string& name) {
  const std::string dir = ::testing::TempDir() + "/" + name;
  fs::remove_all(dir);
  return dir;
}

/// The smallest spec a full four-way comparison answers quickly: stream at
/// 1/48 scale on a 4-SM machine (the service tests must simulate a couple
/// of times, so the workload has to be cheap).
RequestSpec small_spec() {
  RequestSpec spec;
  spec.workload = "stream";
  spec.scale.divisor = 48;
  spec.sms = 4;
  return spec;
}

// ---- request parsing ----

TEST(RequestTest, MinimalLineFillsDefaults) {
  const auto spec =
      parse_request(R"({"schema":"tbp-request-v1","workload":"stream"})");
  ASSERT_TRUE(spec.has_value());
  EXPECT_EQ(spec->workload, "stream");
  EXPECT_EQ(spec->scale.divisor, 4u);
  EXPECT_EQ(spec->scale.seed, 0x7b90147u);
  EXPECT_EQ(spec->sms, 14u);
  EXPECT_EQ(spec->warps, 48u);
  EXPECT_FALSE(spec->gto);
}

TEST(RequestTest, CanonicalLineIsPinnedAndAFixpoint) {
  RequestSpec spec;
  spec.workload = "stream";
  // Every field explicit, keys alphabetical, no whitespace: this line is
  // the dedup fingerprint and (hashed) the store address, so its bytes are
  // part of the protocol.
  const std::string expected =
      R"({"command":"compare","gto":false,"scale_divisor":4,)"
      R"("schema":"tbp-request-v1","seed":129564999,"sms":14,"warps":48,)"
      R"("workload":"stream"})";
  EXPECT_EQ(spec_canonical_line(spec), expected);

  // Canonicalization is a fixpoint: parsing the canonical line and
  // re-canonicalizing reproduces it byte for byte.
  const auto reparsed = parse_request(expected);
  ASSERT_TRUE(reparsed.has_value());
  EXPECT_EQ(spec_canonical_line(*reparsed), expected);
}

TEST(RequestTest, UnknownKeyRejected) {
  const auto spec = parse_request(
      R"({"schema":"tbp-request-v1","workload":"stream","threads":8})");
  ASSERT_FALSE(spec.has_value());
  EXPECT_EQ(spec.status().code(), StatusCode::kInvalidArgument);
}

TEST(RequestTest, WrongSchemaIsVersionMismatch) {
  const auto spec =
      parse_request(R"({"schema":"tbp-request-v2","workload":"stream"})");
  ASSERT_FALSE(spec.has_value());
  EXPECT_EQ(spec.status().code(), StatusCode::kVersionMismatch);
}

TEST(RequestTest, StrictnessRejectsEveryMalformedShape) {
  const std::vector<std::string> bad = {
      "not json at all",
      "[1,2,3]",                                                  // not object
      R"({"workload":"stream"})",                                 // no schema
      R"({"schema":"tbp-request-v1"})",                           // no workload
      R"({"schema":"tbp-request-v1","workload":"nope"})",         // unknown wl
      R"({"schema":"tbp-request-v1","workload":7})",              // wl type
      R"({"schema":"tbp-request-v1","workload":"stream","command":"run"})",
      R"({"schema":"tbp-request-v1","workload":"stream","seed":-1})",
      R"({"schema":"tbp-request-v1","workload":"stream","seed":1.5})",
      R"({"schema":"tbp-request-v1","workload":"stream","scale_divisor":0})",
      R"({"schema":"tbp-request-v1","workload":"stream","sms":0})",
      R"({"schema":"tbp-request-v1","workload":"stream","sms":2000})",
      R"({"schema":"tbp-request-v1","workload":"stream","warps":0})",
      R"({"schema":"tbp-request-v1","workload":"stream","gto":"yes"})",
  };
  for (const std::string& line : bad) {
    const auto spec = parse_request(line);
    EXPECT_FALSE(spec.has_value()) << "accepted: " << line;
    if (!spec.has_value()) {
      EXPECT_EQ(spec.status().code(), StatusCode::kInvalidArgument) << line;
    }
  }
}

TEST(RequestTest, StoreKeyTracksTheSpec) {
  const RequestSpec base = small_spec();
  RequestSpec other = base;
  other.scale.divisor = 96;
  EXPECT_NE(spec_store_key(base).id, spec_store_key(other).id);
  EXPECT_EQ(spec_store_key(base).id, spec_store_key(small_spec()).id);
  EXPECT_EQ(spec_store_key(base).label, "stream-d48-sms4-w48");
  RequestSpec gto = base;
  gto.gto = true;
  EXPECT_EQ(spec_store_key(gto).label, "stream-d48-sms4-w48-gto");
  EXPECT_NE(spec_store_key(gto).id, spec_store_key(base).id);
  // The spec alone is not the address: the model version salts it, so a
  // response stored by another model is never served.
  EXPECT_NE(spec_store_key(base).id,
            store::make_key("response", obs::kManifestSchema,
                            spec_canonical_line(base), "x")
                .id);
}

// ---- spool protocol ----

TEST(SpoolTest, RequestIdValidation) {
  EXPECT_TRUE(valid_request_id("req-1"));
  EXPECT_TRUE(valid_request_id("a1b2c3-p77-0.retry"));
  EXPECT_FALSE(valid_request_id(""));
  EXPECT_FALSE(valid_request_id(".hidden"));
  EXPECT_FALSE(valid_request_id("has space"));
  EXPECT_FALSE(valid_request_id("../escape"));
  EXPECT_FALSE(valid_request_id(std::string(201, 'x')));
}

TEST(SpoolTest, StateMachineRoundTrip) {
  const fs::path root = fresh_dir("tbp_spool_roundtrip");
  ASSERT_TRUE(init_spool(root).ok());

  // submitted: the request sits in the inbox.
  ASSERT_TRUE(submit_request(root, "req-1", "the request line").ok());
  const auto pending = pending_requests(root);
  ASSERT_TRUE(pending.has_value());
  EXPECT_EQ(*pending, std::vector<std::string>{"req-1"});
  EXPECT_TRUE(fs::exists(request_path(root, "req-1")));

  // claimed: exactly one rename moves it out of the inbox.
  const auto line = claim_request(root, "req-1");
  ASSERT_TRUE(line.has_value());
  EXPECT_EQ(*line, "the request line");
  EXPECT_FALSE(fs::exists(request_path(root, "req-1")));
  EXPECT_TRUE(fs::exists(claimed_path(root, "req-1")));
  // A second (racing) claim of the same id loses cleanly.
  EXPECT_EQ(claim_request(root, "req-1").status().code(),
            StatusCode::kNotFound);

  // responded: response before the claim marker goes, so a crash between
  // the two leaves a re-queueable marker, never a lost answer.
  EXPECT_EQ(try_read_response(root, "req-1").status().code(),
            StatusCode::kNotFound);
  ASSERT_TRUE(write_response(root, "req-1", "the response bytes").ok());
  ASSERT_TRUE(finish_request(root, "req-1").ok());
  EXPECT_FALSE(fs::exists(claimed_path(root, "req-1")));
  const auto response = try_read_response(root, "req-1");
  ASSERT_TRUE(response.has_value());
  EXPECT_EQ(*response, "the response bytes");
}

TEST(SpoolTest, PendingIgnoresTempAndForeignFiles) {
  const fs::path root = fresh_dir("tbp_spool_pending");
  ASSERT_TRUE(init_spool(root).ok());
  ASSERT_TRUE(submit_request(root, "b-second", "x").ok());
  ASSERT_TRUE(submit_request(root, "a-first", "x").ok());
  std::ofstream(root / "requests" / "stray.req.tmp.1.2") << "torn";
  std::ofstream(root / "requests" / "notes.md") << "not a request";
  const auto pending = pending_requests(root);
  ASSERT_TRUE(pending.has_value());
  EXPECT_EQ(*pending, (std::vector<std::string>{"a-first", "b-second"}));
}

TEST(SpoolTest, ErrorResponseRoundTrips) {
  const std::string doc =
      error_response(Status(StatusCode::kVersionMismatch, "bad schema tag"));
  const Status carried = response_error(doc);
  ASSERT_FALSE(carried.ok());
  EXPECT_EQ(carried.code(), StatusCode::kVersionMismatch);
  EXPECT_EQ(carried.message(), "bad schema tag");
  // A result manifest is not an error document.
  EXPECT_TRUE(response_error("{\"schema\":\"tbp-manifest-v1\"}").ok());
}

// ---- the daemon ----

TEST(ServiceTest, ColdDuplicateBatchCostsOneSimulation) {
  const fs::path spool = fresh_dir("tbp_service_dedup");
  const RequestSpec dup = small_spec();
  RequestSpec distinct = small_spec();
  distinct.scale.divisor = 96;

  DaemonOptions options;
  options.spool_dir = spool;
  options.jobs = 2;
  Daemon daemon(options);
  ASSERT_TRUE(daemon.open().ok());

  const std::string dup_line = spec_canonical_line(dup);
  for (const std::string id : {"dup-1", "dup-2", "dup-3", "dup-4"}) {
    ASSERT_TRUE(submit_request(spool, id, dup_line).ok());
  }
  ASSERT_TRUE(
      submit_request(spool, "distinct-1", spec_canonical_line(distinct)).ok());

  const std::size_t invocations_before = harness::run_comparison_invocations();
  const auto answered = daemon.drain_once();
  ASSERT_TRUE(answered.has_value());
  EXPECT_EQ(*answered, 5u);

  // The dedup proof: 5 requests, 2 distinct specs, exactly 2 simulations.
  EXPECT_EQ(harness::run_comparison_invocations() - invocations_before, 2u);
  const ServiceStats stats = daemon.stats();
  EXPECT_EQ(stats.claimed, 5u);
  EXPECT_EQ(stats.deduped, 3u);
  EXPECT_EQ(stats.simulations, 2u);
  EXPECT_EQ(stats.responses, 5u);
  EXPECT_EQ(stats.malformed, 0u);
  // Duplicates 2..4 were served by store reads: hits == N-1.
  const store::StoreStats store_stats = daemon.response_store().stats();
  EXPECT_EQ(store_stats.hits, 3u);
  EXPECT_EQ(store_stats.misses, 2u);  // one cold probe per group
  EXPECT_EQ(store_stats.puts, 2u);

  // Every duplicate got byte-identical bytes, and those bytes are exactly
  // the direct-computation manifest (what tbpoint_cli --manifest writes).
  const auto first = try_read_response(spool, "dup-1");
  ASSERT_TRUE(first.has_value());
  ASSERT_TRUE(response_error(*first).ok());
  for (const std::string id : {"dup-2", "dup-3", "dup-4"}) {
    const auto other = try_read_response(spool, id);
    ASSERT_TRUE(other.has_value());
    EXPECT_EQ(*other, *first) << id;
  }
  const harness::ExperimentRow row = run_spec(dup, 1);
  EXPECT_EQ(*first, spec_manifest_bytes(dup, row));
  const auto distinct_response = try_read_response(spool, "distinct-1");
  ASSERT_TRUE(distinct_response.has_value());
  EXPECT_NE(*distinct_response, *first);

  // A later duplicate is answered straight from the store: no simulation.
  ASSERT_TRUE(submit_request(spool, "dup-5", dup_line).ok());
  const auto warm = daemon.drain_once();
  ASSERT_TRUE(warm.has_value());
  EXPECT_EQ(*warm, 1u);
  EXPECT_EQ(daemon.stats().simulations, 2u);
  const auto warm_response = try_read_response(spool, "dup-5");
  ASSERT_TRUE(warm_response.has_value());
  EXPECT_EQ(*warm_response, *first);
  // The spool is fully drained: no claimed markers left behind.
  EXPECT_TRUE(fs::is_empty(spool / "claimed"));
  EXPECT_TRUE(fs::is_empty(spool / "requests"));
}

TEST(ServiceTest, MalformedRequestsGetErrorResponsesAndServiceContinues) {
  const fs::path spool = fresh_dir("tbp_service_malformed");
  DaemonOptions options;
  options.spool_dir = spool;
  Daemon daemon(options);
  ASSERT_TRUE(daemon.open().ok());

  ASSERT_TRUE(submit_request(spool, "bad-json", "{{{not json").ok());
  ASSERT_TRUE(submit_request(
                  spool, "bad-workload",
                  R"({"schema":"tbp-request-v1","workload":"nope"})")
                  .ok());
  ASSERT_TRUE(submit_request(
                  spool, "bad-schema",
                  R"({"schema":"tbp-request-v9","workload":"stream"})")
                  .ok());
  // bfs's 512-thread blocks need 16 warps per SM.
  ASSERT_TRUE(submit_request(
                  spool, "too-small-sm",
                  R"({"schema":"tbp-request-v1","workload":"bfs","warps":8})")
                  .ok());

  const std::size_t invocations_before = harness::run_comparison_invocations();
  const auto answered = daemon.drain_once();
  ASSERT_TRUE(answered.has_value());
  EXPECT_EQ(*answered, 4u);
  EXPECT_EQ(daemon.stats().malformed, 4u);
  EXPECT_EQ(daemon.stats().simulations, 0u);
  EXPECT_EQ(harness::run_comparison_invocations(), invocations_before);

  // Every client got a structured answer, not a hang.
  const auto bad_json = try_read_response(spool, "bad-json");
  ASSERT_TRUE(bad_json.has_value());
  EXPECT_EQ(response_error(*bad_json).code(), StatusCode::kInvalidArgument);
  const auto bad_schema = try_read_response(spool, "bad-schema");
  ASSERT_TRUE(bad_schema.has_value());
  EXPECT_EQ(response_error(*bad_schema).code(), StatusCode::kVersionMismatch);
  const auto too_small = try_read_response(spool, "too-small-sm");
  ASSERT_TRUE(too_small.has_value());
  EXPECT_EQ(response_error(*too_small).code(), StatusCode::kInvalidArgument);
  EXPECT_TRUE(fs::is_empty(spool / "claimed"));
}

TEST(ServiceTest, ServeHonorsMaxRequests) {
  const fs::path spool = fresh_dir("tbp_service_serve");
  DaemonOptions options;
  options.spool_dir = spool;
  options.poll_ms = 1;
  options.max_requests = 2;
  Daemon daemon(options);
  ASSERT_TRUE(daemon.open().ok());
  ASSERT_TRUE(submit_request(spool, "m-1", "garbage one").ok());
  ASSERT_TRUE(submit_request(spool, "m-2", "garbage two").ok());

  std::atomic<bool> stop{false};
  ASSERT_TRUE(daemon.serve(stop).ok());  // returns once both are answered
  EXPECT_EQ(daemon.stats().responses, 2u);
  EXPECT_TRUE(try_read_response(spool, "m-1").has_value());
  EXPECT_TRUE(try_read_response(spool, "m-2").has_value());
}

}  // namespace
}  // namespace tbp::service
