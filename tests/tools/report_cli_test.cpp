// tbp-report's exit-code contract, driven in-process through the same
// command functions the binary wraps: corrupt or truncated manifests exit 2
// with a diagnostic (never crash), regressions past --max-regress exit 1,
// clean comparisons exit 0.
#include "report_lib.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <string>

#include "harness/faults.hpp"
#include "obs/report.hpp"
#include "prof/sidecar.hpp"
#include "service/stats.hpp"
#include "support/atomic_file.hpp"

namespace tbp::report {
namespace {

using obs::JsonValue;

[[nodiscard]] std::string temp_dir(const std::string& name) {
  const std::string dir = ::testing::TempDir() + "/" + name;
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

/// A bench-perf body with one entry; the knobs are the gated fields.
[[nodiscard]] JsonValue perf_body(double wall_seconds, double cycles_per_sec,
                                  double error_pct) {
  JsonValue entry = JsonValue::object();
  entry.set("wall_seconds", wall_seconds);
  entry.set("sim_cycles_per_second", cycles_per_sec);
  entry.set("error_pct", error_pct);
  entry.set("from_cache", false);
  JsonValue entries = JsonValue::object();
  entries.set("workload0", std::move(entry));
  JsonValue body = JsonValue::object();
  body.set("bench", "micro_sim");
  body.set("entries", std::move(entries));
  body.set("wall_seconds", wall_seconds + 0.5);
  return body;
}

[[nodiscard]] std::string write_perf(const std::string& path, double wall,
                                     double cps, double err) {
  const Status s = obs::write_json_file(
      obs::seal_json(obs::kBenchPerfSchema, perf_body(wall, cps, err)), path);
  EXPECT_TRUE(s.ok()) << s.to_string();
  return path;
}

/// Runs a command with output swallowed into a scratch stream.
[[nodiscard]] int run(const std::vector<std::string>& args) {
  std::FILE* sink = std::tmpfile();
  const int exit_code = run_report(args, sink != nullptr ? sink : stdout);
  if (sink != nullptr) std::fclose(sink);
  return exit_code;
}

TEST(ReportCliTest, ShowRendersValidDocuments) {
  const std::string dir = temp_dir("tbp_report_show");
  const std::string path = write_perf(dir + "/perf.json", 2.0, 5e6, 1.0);
  EXPECT_EQ(run({"show", path}), kExitOk);
}

TEST(ReportCliTest, MissingFileExitsUnreadable) {
  EXPECT_EQ(run({"show", temp_dir("tbp_report_miss") + "/nope.json"}),
            kExitUnreadable);
  EXPECT_EQ(run({"compare", "/does/not/exist.json", "/also/missing.json"}),
            kExitUnreadable);
}

TEST(ReportCliTest, BadUsageExitsUnreadable) {
  EXPECT_EQ(run({}), kExitUnreadable);
  EXPECT_EQ(run({"frobnicate"}), kExitUnreadable);
  EXPECT_EQ(run({"show"}), kExitUnreadable);
  EXPECT_EQ(run({"compare", "one.json"}), kExitUnreadable);
  const std::string dir = temp_dir("tbp_report_flags");
  const std::string path = write_perf(dir + "/a.json", 1.0, 1e6, 0.5);
  EXPECT_EQ(run({"compare", path, path, "--max-regress", "banana"}),
            kExitUnreadable);
  EXPECT_EQ(run({"compare", path, path, "--max-regress"}), kExitUnreadable);
}

// The CI perf gate passes --max-regress: a negative, empty or non-finite
// threshold is a usage error, never a gate that fails or passes everything.
TEST(ReportCliTest, MaxRegressMustBeAFiniteNonNegativeNumber) {
  const std::string dir = temp_dir("tbp_report_threshold");
  const std::string path = write_perf(dir + "/a.json", 1.0, 1e6, 0.5);
  for (const char* bad : {"-5", "", "1e999", "inf", "nan"}) {
    EXPECT_EQ(run({"compare", path, path, "--max-regress", bad}),
              kExitUnreadable)
        << "--max-regress '" << bad << "'";
  }
  EXPECT_EQ(run({"compare", path, path, "--max-regress", "0"}), kExitOk);
}

TEST(ReportCliTest, IdenticalManifestsCompareClean) {
  const std::string dir = temp_dir("tbp_report_same");
  const std::string a = write_perf(dir + "/a.json", 2.0, 5e6, 1.0);
  const std::string b = write_perf(dir + "/b.json", 2.0, 5e6, 1.0);
  EXPECT_EQ(run({"compare", a, b, "--max-regress", "10"}), kExitOk);
}

TEST(ReportCliTest, FiftyPercentWallTimeRegressionFailsTheGate) {
  const std::string dir = temp_dir("tbp_report_wall");
  const std::string old_path = write_perf(dir + "/old.json", 2.0, 5e6, 1.0);
  const std::string new_path = write_perf(dir + "/new.json", 3.0, 5e6, 1.0);
  EXPECT_EQ(run({"compare", old_path, new_path, "--max-regress", "10"}),
            kExitRegressed);
  // A generous threshold lets the same pair pass.
  EXPECT_EQ(run({"compare", old_path, new_path, "--max-regress", "400"}),
            kExitOk);
  // Getting faster is never a regression.
  EXPECT_EQ(run({"compare", new_path, old_path, "--max-regress", "10"}),
            kExitOk);
}

TEST(ReportCliTest, ThroughputDropAndAccuracyLossAreGated) {
  const std::string dir = temp_dir("tbp_report_dirs");
  const std::string base = write_perf(dir + "/base.json", 2.0, 5e6, 1.0);
  const std::string slow = write_perf(dir + "/slow.json", 2.0, 2e6, 1.0);
  EXPECT_EQ(run({"compare", base, slow, "--max-regress", "10"}),
            kExitRegressed);
  const std::string wrong = write_perf(dir + "/wrong.json", 2.0, 5e6, 2.5);
  EXPECT_EQ(run({"compare", base, wrong, "--max-regress", "10"}),
            kExitRegressed);
  // Error that *shrinks* in magnitude is an improvement even if signed.
  const std::string better = write_perf(dir + "/better.json", 2.0, 5e6, -0.5);
  EXPECT_EQ(run({"compare", base, better, "--max-regress", "10"}), kExitOk);
}

// Golden output: a manifest carrying `store.*` metrics counters must
// surface them as one deterministic `store:` line — exact bytes pinned.
TEST(ReportCliTest, ShowSurfacesStoreCountersGoldenOutput) {
  const std::string dir = temp_dir("tbp_report_store");
  JsonValue counters = JsonValue::object();
  counters.set("store.hits", std::uint64_t{12});
  counters.set("store.misses", std::uint64_t{3});
  counters.set("store.evictions", std::uint64_t{1});
  counters.set("store.quarantined", std::uint64_t{2});
  counters.set("sim.cycles", std::uint64_t{999});  // non-store: not shown
  JsonValue metrics = JsonValue::object();
  metrics.set("counters", std::move(counters));
  JsonValue body = JsonValue::object();
  body.set("tool", "tbpoint_cli");
  body.set("command", "pipeline");
  body.set("metrics", std::move(metrics));
  const std::string path = dir + "/manifest.json";
  ASSERT_TRUE(
      obs::write_json_file(obs::seal_json(obs::kManifestSchema, body), path)
          .ok());

  std::FILE* capture = std::tmpfile();
  ASSERT_NE(capture, nullptr);
  EXPECT_EQ(run_report({"show", path}, capture), kExitOk);
  std::rewind(capture);
  std::string output;
  char buffer[512];
  std::size_t n = 0;
  while ((n = std::fread(buffer, 1, sizeof(buffer), capture)) > 0) {
    output.append(buffer, n);
  }
  std::fclose(capture);

  const std::string expected =
      path + " (" + std::string(obs::kManifestSchema) + ")\n" +
      "tool: tbpoint_cli pipeline\n" +
      "store: evictions=1 hits=12 misses=3 quarantined=2\n";
  EXPECT_EQ(output, expected);
}

// Bench-perf documents carry the counters as a `store` object instead;
// the same line must come out.
TEST(ReportCliTest, ShowSurfacesStoreBlockInBenchPerfDocuments) {
  const std::string dir = temp_dir("tbp_report_store_perf");
  JsonValue body = perf_body(2.0, 5e6, 1.0);
  JsonValue store = JsonValue::object();
  store.set("hits", std::uint64_t{7});
  store.set("misses", std::uint64_t{5});
  store.set("evictions", std::uint64_t{0});
  store.set("quarantined", std::uint64_t{1});
  body.set("store", std::move(store));
  const std::string path = dir + "/perf.json";
  ASSERT_TRUE(
      obs::write_json_file(obs::seal_json(obs::kBenchPerfSchema, body), path)
          .ok());

  std::FILE* capture = std::tmpfile();
  ASSERT_NE(capture, nullptr);
  EXPECT_EQ(run_report({"show", path}, capture), kExitOk);
  std::rewind(capture);
  std::string output;
  char buffer[512];
  std::size_t n = 0;
  while ((n = std::fread(buffer, 1, sizeof(buffer), capture)) > 0) {
    output.append(buffer, n);
  }
  std::fclose(capture);
  EXPECT_NE(
      output.find("store: evictions=0 hits=7 misses=5 quarantined=1\n"),
      std::string::npos)
      << output;
}

[[nodiscard]] std::string capture_run(const std::vector<std::string>& args,
                                      int expected_exit) {
  std::FILE* capture = std::tmpfile();
  EXPECT_NE(capture, nullptr);
  EXPECT_EQ(run_report(args, capture), expected_exit);
  std::rewind(capture);
  std::string output;
  char buffer[512];
  std::size_t n = 0;
  while ((n = std::fread(buffer, 1, sizeof(buffer), capture)) > 0) {
    output.append(buffer, n);
  }
  std::fclose(capture);
  return output;
}

// A bench-perf document's `bench:` line names the parallelism its wall
// times were measured under; compare reports the two fields but never
// gates on them, so comparing runs from different hosts stays clean.
TEST(ReportCliTest, ShowPrintsJobsAndNprocOnTheBenchLine) {
  const std::string dir = temp_dir("tbp_report_jobs");
  const auto write = [&dir](const std::string& name, std::uint64_t jobs,
                            std::uint64_t nproc) {
    JsonValue body = perf_body(2.0, 5e6, 1.0);
    body.set("jobs", jobs);
    body.set("nproc", nproc);
    const std::string path = dir + "/" + name;
    EXPECT_TRUE(
        obs::write_json_file(obs::seal_json(obs::kBenchPerfSchema, body), path)
            .ok());
    return path;
  };
  const std::string path = write("perf.json", 2, 4);
  const std::string shown = capture_run({"show", path}, kExitOk);
  EXPECT_NE(shown.find("bench: micro_sim jobs=2 nproc=4\n"), std::string::npos)
      << shown;

  const std::string other = write("other.json", 16, 64);
  const std::string compared = capture_run({"compare", path, other}, kExitOk);
  EXPECT_NE(compared.find("compared 4 gated field(s)"), std::string::npos)
      << compared;
  EXPECT_NE(compared.find("no regressions"), std::string::npos) << compared;
}

/// One wall-clock span object in the shape prof::spans_to_value emits.
[[nodiscard]] JsonValue span_value(std::uint64_t count, double total_seconds,
                                   double p50, double p95, double p99) {
  JsonValue span = JsonValue::object();
  span.set("count", count);
  span.set("total_seconds", total_seconds);
  span.set("p50_seconds", p50);
  span.set("p95_seconds", p95);
  span.set("p99_seconds", p99);
  return span;
}

// Golden output: the sealed tbp-service-stats-v1 ledger tbpointd writes on
// exit must render as the counters table plus the wall-clock span table —
// exact bytes pinned, so a format drift is a deliberate test update.
TEST(ReportCliTest, ShowRendersServiceStatsLedgerGoldenOutput) {
  const std::string dir = temp_dir("tbp_report_svc_stats");
  JsonValue counters = JsonValue::object();
  counters.set("claimed", std::uint64_t{5});
  counters.set("deduped", std::uint64_t{2});
  counters.set("malformed", std::uint64_t{0});
  counters.set("responses", std::uint64_t{5});
  counters.set("simulations", std::uint64_t{3});
  counters.set("store_hits", std::uint64_t{1});
  counters.set("store_misses", std::uint64_t{3});
  JsonValue spans = JsonValue::object();
  spans.set("service.simulate", span_value(3, 0.6, 0.1, 0.25, 0.25));
  JsonValue body = JsonValue::object();
  body.set("counters", std::move(counters));
  body.set("spans", std::move(spans));
  const std::string path = dir + "/stats.json";
  ASSERT_TRUE(obs::write_json_file(
                  obs::seal_json(service::kServiceStatsSchema, body), path)
                  .ok());

  const std::string expected =
      path + " (" + std::string(service::kServiceStatsSchema) + ")\n" +
      "counter       value\n"
      "-------------------\n"
      "claimed       5    \n"
      "deduped       2    \n"
      "malformed     0    \n"
      "responses     5    \n"
      "simulations   3    \n"
      "store_hits    1    \n"
      "store_misses  3    \n"
      "\n"
      "wall-clock spans:\n"
      "span              count  total s  p50 ms   p95 ms   p99 ms \n"
      "-----------------------------------------------------------\n"
      "service.simulate  3      0.600    100.000  250.000  250.000\n";
  EXPECT_EQ(capture_run({"show", path}, kExitOk), expected);
}

// Golden output: `tbp-report prof` renders a tbp-prof-v1 sidecar as the
// wall-clock span table, and `show` routes the same document to the same
// renderer.
TEST(ReportCliTest, ProfViewRendersSpanPercentilesGoldenOutput) {
  const std::string dir = temp_dir("tbp_report_prof");
  JsonValue spans = JsonValue::object();
  spans.set("service.simulate", span_value(3, 0.6, 0.1, 0.25, 0.25));
  JsonValue body = JsonValue::object();
  body.set("spans", std::move(spans));
  const std::string path = dir + "/prof.json";
  ASSERT_TRUE(obs::write_json_file(obs::seal_json(prof::kProfSchema, body),
                                   path)
                  .ok());

  const std::string table =
      "\n"
      "wall-clock spans:\n"
      "span              count  total s  p50 ms   p95 ms   p99 ms \n"
      "-----------------------------------------------------------\n"
      "service.simulate  3      0.600    100.000  250.000  250.000\n";
  const std::string header =
      path + " (" + std::string(prof::kProfSchema) + ")\n";
  EXPECT_EQ(capture_run({"prof", path}, kExitOk), header + table);
  EXPECT_EQ(capture_run({"show", path}, kExitOk), header + table);
}

TEST(ReportCliTest, ProfCommandRejectsOtherSchemas) {
  const std::string dir = temp_dir("tbp_report_prof_schema");
  const std::string perf = write_perf(dir + "/perf.json", 2.0, 5e6, 1.0);
  EXPECT_EQ(run({"prof", perf}), kExitUnreadable);
  EXPECT_EQ(run({"prof", dir + "/missing.json"}), kExitUnreadable);
}

TEST(ReportCliTest, SchemaMismatchBetweenFilesIsUnreadable) {
  const std::string dir = temp_dir("tbp_report_schema");
  const std::string perf = write_perf(dir + "/perf.json", 2.0, 5e6, 1.0);
  JsonValue manifest_body = JsonValue::object();
  manifest_body.set("tool", "tbpoint_cli");
  const std::string manifest = dir + "/manifest.json";
  ASSERT_TRUE(obs::write_json_file(
                  obs::seal_json(obs::kManifestSchema, manifest_body), manifest)
                  .ok());
  EXPECT_EQ(run({"compare", perf, manifest}), kExitUnreadable);
}

TEST(ReportCliTest, TruncatedManifestExitsUnreadableNeverCrashes) {
  const std::string dir = temp_dir("tbp_report_trunc");
  const std::string path = write_perf(dir + "/perf.json", 2.0, 5e6, 1.0);
  const Result<std::string> pristine = io::read_file_limited(path);
  ASSERT_TRUE(pristine.ok());
  const std::string victim = dir + "/victim.json";
  // size()-2 cuts into the closing brace; size()-1 would only shave the
  // trailing newline, which leaves a complete, valid document.
  for (const std::size_t keep :
       {std::size_t{0}, std::size_t{1}, pristine->size() / 4,
        pristine->size() / 2, pristine->size() - 2}) {
    ASSERT_TRUE(io::write_file_atomic(victim,
                                      harness::truncate_at(*pristine, keep))
                    .ok());
    EXPECT_EQ(run({"show", victim}), kExitUnreadable) << "keep=" << keep;
    EXPECT_EQ(run({"compare", path, victim}), kExitUnreadable)
        << "keep=" << keep;
  }
}

TEST(ReportCliTest, CorruptionSuiteIsDetectedOrProvablyHarmless) {
  const std::string dir = temp_dir("tbp_report_faults");
  const std::string path = write_perf(dir + "/perf.json", 2.0, 5e6, 1.0);
  const Result<std::string> pristine = io::read_file_limited(path);
  ASSERT_TRUE(pristine.ok());
  const std::string donor_text = obs::json_serialize_pretty(obs::seal_json(
                                     obs::kBenchPerfSchema,
                                     perf_body(9.0, 1e6, 4.0))) +
                                 "\n";
  const std::string canonical_body =
      obs::json_serialize(perf_body(2.0, 5e6, 1.0));

  const std::string victim = dir + "/victim.json";
  for (const harness::Corruption& corruption :
       harness::corruption_suite(*pristine, donor_text)) {
    ASSERT_TRUE(io::write_file_atomic(victim, corruption.payload).ok());
    const int exit_code = run({"show", victim});
    // Never a crash, never a false "regression": either the seal rejects
    // the payload (exit 2) or the mutation provably did not change the
    // canonical body (e.g. a bit flip inside pretty-printing whitespace).
    if (exit_code == kExitOk) {
      const Result<obs::JsonValue> body =
          obs::load_sealed_file(victim, obs::kBenchPerfSchema);
      ASSERT_TRUE(body.ok()) << corruption.name;
      EXPECT_TRUE(obs::json_serialize(*body) == canonical_body ||
                  corruption.payload == donor_text)
          << corruption.name << " accepted with altered content";
    } else {
      EXPECT_EQ(exit_code, kExitUnreadable) << corruption.name;
    }
  }
}

}  // namespace
}  // namespace tbp::report
