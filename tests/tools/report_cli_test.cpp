// tbp-report show, driven in-process through the entry point the binary
// wraps: each sealed schema renders as pinned bytes, and a missing, corrupt
// or truncated document or a bad command line exits 2 with a diagnostic
// (never a crash).
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

/// A bench-perf body with one entry, in the shape the figure benches write.
[[nodiscard]] JsonValue perf_body(double wall_seconds) {
  JsonValue entry = JsonValue::object();
  entry.set("wall_seconds", wall_seconds);
  entry.set("sim_cycles_per_second", 5e6);
  entry.set("error_pct", 1.0);
  entry.set("from_cache", false);
  JsonValue entries = JsonValue::object();
  entries.set("workload0", std::move(entry));
  JsonValue body = JsonValue::object();
  body.set("bench", "fig9_overall_ipc");
  body.set("entries", std::move(entries));
  body.set("wall_seconds", wall_seconds + 0.5);
  return body;
}

[[nodiscard]] std::string write_perf(const std::string& path, double wall) {
  const Status s = obs::write_json_file(
      obs::seal_json(obs::kBenchPerfSchema, perf_body(wall)), path);
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

/// Runs a command and returns what it printed on `out`.
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

TEST(ReportCliTest, ShowRendersValidDocuments) {
  const std::string dir = temp_dir("tbp_report_show");
  const std::string path = write_perf(dir + "/perf.json", 2.0);
  EXPECT_EQ(run({"show", path}), kExitOk);
}

TEST(ReportCliTest, MissingFileExitsUnreadable) {
  EXPECT_EQ(run({"show", temp_dir("tbp_report_miss") + "/nope.json"}),
            kExitUnreadable);
}

// `show` is the only command: the retired `compare` and `prof` are usage
// errors even on readable documents.
TEST(ReportCliTest, BadUsageExitsUnreadable) {
  EXPECT_EQ(run({}), kExitUnreadable);
  EXPECT_EQ(run({"frobnicate"}), kExitUnreadable);
  EXPECT_EQ(run({"show"}), kExitUnreadable);
  const std::string dir = temp_dir("tbp_report_usage");
  const std::string a = write_perf(dir + "/a.json", 1.0);
  EXPECT_EQ(run({"show", a, a}), kExitUnreadable);
  EXPECT_EQ(run({"compare", a, a}), kExitUnreadable);
  JsonValue body = JsonValue::object();
  body.set("spans", JsonValue::object());
  const std::string sidecar = dir + "/prof.json";
  ASSERT_TRUE(
      obs::write_json_file(obs::seal_json(prof::kProfSchema, body), sidecar)
          .ok());
  EXPECT_EQ(run({"show", sidecar}), kExitOk);
  EXPECT_EQ(run({"prof", sidecar}), kExitUnreadable);
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

  const std::string expected =
      path + " (" + std::string(obs::kManifestSchema) + ")\n" +
      "tool: tbpoint_cli pipeline\n" +
      "store: evictions=1 hits=12 misses=3 quarantined=2\n";
  EXPECT_EQ(capture_run({"show", path}, kExitOk), expected);
}

// Bench-perf documents carry the counters as a `store` object instead;
// the same line must come out.
TEST(ReportCliTest, ShowSurfacesStoreBlockInBenchPerfDocuments) {
  const std::string dir = temp_dir("tbp_report_store_perf");
  JsonValue body = perf_body(2.0);
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

  const std::string output = capture_run({"show", path}, kExitOk);
  EXPECT_NE(
      output.find("store: evictions=0 hits=7 misses=5 quarantined=1\n"),
      std::string::npos)
      << output;
}

// A bench-perf document's `bench:` line names the parallelism its wall
// times were measured under.
TEST(ReportCliTest, ShowPrintsJobsAndNprocOnTheBenchLine) {
  const std::string dir = temp_dir("tbp_report_jobs");
  JsonValue body = perf_body(2.0);
  body.set("jobs", std::uint64_t{2});
  body.set("nproc", std::uint64_t{4});
  const std::string path = dir + "/perf.json";
  ASSERT_TRUE(
      obs::write_json_file(obs::seal_json(obs::kBenchPerfSchema, body), path)
          .ok());
  const std::string shown = capture_run({"show", path}, kExitOk);
  EXPECT_NE(shown.find("bench: fig9_overall_ipc jobs=2 nproc=4\n"),
            std::string::npos)
      << shown;
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

// Golden output: a tbp-prof-v1 sidecar renders as the wall-clock span
// table, with count, total time and latency percentiles.
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

  const std::string expected =
      path + " (" + std::string(prof::kProfSchema) + ")\n" +
      "\n"
      "wall-clock spans:\n"
      "span              count  total s  p50 ms   p95 ms   p99 ms \n"
      "-----------------------------------------------------------\n"
      "service.simulate  3      0.600    100.000  250.000  250.000\n";
  EXPECT_EQ(capture_run({"show", path}, kExitOk), expected);
}

// Golden output: the manifest dashboard — the config line, the attribution
// table in workload order (`-` where the attribution is invalid), the
// speedup-vs-error frontier in sample-size order, and one cluster table per
// workload that has clusters.
TEST(ReportCliTest, ShowRendersManifestDashboardGoldenOutput) {
  const std::string dir = temp_dir("tbp_report_dashboard");
  JsonValue config = JsonValue::object();
  config.set("benchmarks", JsonValue::Array{"mst", "bfs"});
  config.set("scale_divisor", std::uint64_t{8});
  config.set("scheduler", "gto");

  JsonValue invalid = JsonValue::object();
  invalid.set("valid", false);
  JsonValue mst = JsonValue::object();
  mst.set("name", "mst");
  mst.set("exact_ipc", 1.25);
  mst.set("predicted_ipc", 1.3);
  mst.set("error_pct", 4.0);
  mst.set("sample_pct", 100.0);
  mst.set("attribution", std::move(invalid));

  JsonValue cluster = JsonValue::object();
  cluster.set("cluster", std::uint64_t{0});
  cluster.set("rep_launch", std::uint64_t{3});
  cluster.set("n_launches", std::uint64_t{7});
  cluster.set("scale", 6.5);
  cluster.set("mean_distance_to_rep", 0.125);
  cluster.set("inter_cycles", 120.0);
  cluster.set("warmup_cycles", -40.5);
  cluster.set("recon_cycles", 8.5);
  JsonValue attribution = JsonValue::object();
  attribution.set("valid", true);
  attribution.set("inter_pct", -1.5);
  attribution.set("warmup_pct", -2.0);
  attribution.set("reconstruction_pct", -0.5);
  attribution.set("clusters", JsonValue::Array{std::move(cluster)});
  JsonValue bfs = JsonValue::object();
  bfs.set("name", "bfs");
  bfs.set("exact_ipc", 2.5);
  bfs.set("predicted_ipc", 2.4);
  bfs.set("error_pct", -4.0);
  bfs.set("sample_pct", 12.5);
  bfs.set("attribution", std::move(attribution));

  JsonValue body = JsonValue::object();
  body.set("tool", "fig9_overall_ipc");
  body.set("command", "collect_rows");
  body.set("config", std::move(config));
  body.set("workloads", JsonValue::Array{std::move(mst), std::move(bfs)});
  const std::string path = dir + "/manifest.json";
  ASSERT_TRUE(
      obs::write_json_file(obs::seal_json(obs::kManifestSchema, body), path)
          .ok());

  const std::string expected =
      path + " (" + std::string(obs::kManifestSchema) + ")\n" +
      "tool: fig9_overall_ipc collect_rows\n"
      "config: benchmarks=[\"mst\",\"bfs\"] scale_divisor=8 scheduler=gto\n"
      "\n"
      "Accuracy attribution (signed % of exact IPC):\n"
      "workload  exact IPC  TBP IPC  err%    inter%  warmup%  recon%  sample%\n"
      "----------------------------------------------------------------------\n"
      "mst       1.2500     1.3000   4.000   -       -        -       100.00 \n"
      "bfs       2.5000     2.4000   -4.000  -1.500  -2.000   -0.500  12.50  \n"
      "\n"
      "Speedup vs. error frontier (by sample size):\n"
      "sample%  est. speedup  |err|%  workload\n"
      "---------------------------------------\n"
      "12.50    8.0x          4.000   bfs     \n"
      "100.00   1.0x          4.000   mst     \n"
      "\n"
      "clusters: bfs\n"
      "cluster  rep  launches  scale  dist    inter cyc  warmup cyc  recon cyc\n"
      "-----------------------------------------------------------------------\n"
      "0        3    7         6.500  0.1250  120.0      -40.5       8.5      \n";
  EXPECT_EQ(capture_run({"show", path}, kExitOk), expected);
}

TEST(ReportCliTest, TruncatedManifestExitsUnreadableNeverCrashes) {
  const std::string dir = temp_dir("tbp_report_trunc");
  const std::string path = write_perf(dir + "/perf.json", 2.0);
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
  }
}

TEST(ReportCliTest, CorruptionSuiteIsDetectedOrProvablyHarmless) {
  const std::string dir = temp_dir("tbp_report_faults");
  const std::string path = write_perf(dir + "/perf.json", 2.0);
  const Result<std::string> pristine = io::read_file_limited(path);
  ASSERT_TRUE(pristine.ok());
  const std::string donor_text =
      obs::json_serialize_pretty(
          obs::seal_json(obs::kBenchPerfSchema, perf_body(9.0))) +
      "\n";
  const std::string canonical_body = obs::json_serialize(perf_body(2.0));

  const std::string victim = dir + "/victim.json";
  for (const harness::Corruption& corruption :
       harness::corruption_suite(*pristine, donor_text)) {
    ASSERT_TRUE(io::write_file_atomic(victim, corruption.payload).ok());
    const int exit_code = run({"show", victim});
    // Never a crash, never altered content shown as valid: either the seal
    // rejects the payload (exit 2) or the mutation provably did not change
    // the canonical body (e.g. a bit flip inside pretty-printing whitespace).
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
