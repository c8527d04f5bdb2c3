#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <initializer_list>
#include <optional>
#include <sstream>
#include <filesystem>
#include <string>
#include <utility>
#include <vector>

#include "harness/cache.hpp"
#include "harness/cli.hpp"
#include "harness/csv.hpp"
#include "harness/experiment.hpp"
#include "harness/table.hpp"
#include "sim/config.hpp"
#include "store/key.hpp"
#include "support/artifact.hpp"
#include "support/checksum.hpp"
#include "support/parallel.hpp"
#include "workloads/workload.hpp"

namespace tbp::harness {
namespace {

// ---- run_comparison on a fast benchmark ----

TEST(ExperimentTest, ComparisonProducesCoherentRow) {
  workloads::WorkloadScale scale;
  scale.divisor = 32;
  const workloads::Workload workload = workloads::make_workload("stream", scale);
  sim::GpuConfig config = sim::fermi_config();
  config.n_sms = 4;
  ComparisonOptions options;
  options.target_units = 60;
  const ExperimentRow row = run_comparison(workload, config, options);

  EXPECT_EQ(row.workload, "stream");
  EXPECT_FALSE(row.irregular);
  EXPECT_GT(row.full_ipc, 0.0);
  EXPECT_LE(row.full_ipc, 4.0);
  EXPECT_GT(row.total_warp_insts, 0u);
  // Every method produced a prediction in the right ballpark.
  for (const MethodResult* m : {&row.random, &row.simpoint, &row.tbpoint}) {
    EXPECT_GT(m->ipc, 0.0);
    EXPECT_LT(m->err_pct, 50.0);
    EXPECT_GT(m->sample_pct, 0.0);
    EXPECT_LE(m->sample_pct, 100.0);
  }
  // stream: hundreds of homogeneous launches -> few clusters, tiny sample,
  // inter-launch dominated (the paper's Fig. 11 observation).
  EXPECT_LT(row.tbp_clusters, workload.launches.size() / 4);
  EXPECT_LT(row.tbpoint.sample_pct, row.random.sample_pct);
  EXPECT_GT(row.inter_skip_share, 0.5);
}

TEST(ExperimentTest, DeterministicRow) {
  workloads::WorkloadScale scale;
  scale.divisor = 32;
  const workloads::Workload workload = workloads::make_workload("hotspot", scale);
  sim::GpuConfig config = sim::fermi_config();
  config.n_sms = 4;
  ComparisonOptions options;
  options.target_units = 40;
  const ExperimentRow a = run_comparison(workload, config, options);
  const ExperimentRow b = run_comparison(workload, config, options);
  EXPECT_DOUBLE_EQ(a.full_ipc, b.full_ipc);
  EXPECT_DOUBLE_EQ(a.tbpoint.ipc, b.tbpoint.ipc);
  EXPECT_DOUBLE_EQ(a.random.ipc, b.random.ipc);
  EXPECT_DOUBLE_EQ(a.simpoint.ipc, b.simpoint.ipc);
}

// ---- cache ----

TEST(CacheTest, KeyChangesWithInputs) {
  const workloads::WorkloadScale scale;
  const sim::GpuConfig config = sim::fermi_config();
  const ComparisonOptions options;
  const std::string base = experiment_key("bfs", scale, config, options);

  workloads::WorkloadScale other_scale = scale;
  other_scale.divisor += 1;
  EXPECT_NE(base, experiment_key("bfs", other_scale, config, options));

  sim::GpuConfig other_config = config;
  other_config.n_sms = 7;
  EXPECT_NE(base, experiment_key("bfs", scale, other_config, options));

  ComparisonOptions other_options;
  other_options.tbpoint.intra.distance_threshold = 0.4;
  EXPECT_NE(base, experiment_key("bfs", scale, config, other_options));

  // Inputs the simulator or Ideal-SimPoint reads, changed one at a time.
  using ConfigEdit = void (*)(sim::GpuConfig&);
  const std::vector<std::pair<const char*, ConfigEdit>> config_edits = {
      {"lat.float_alu", [](sim::GpuConfig& c) { ++c.lat.float_alu; }},
      {"lat.shared_mem", [](sim::GpuConfig& c) { ++c.lat.shared_mem; }},
      {"lat.store_issue", [](sim::GpuConfig& c) { ++c.lat.store_issue; }},
      {"l1.line_bytes", [](sim::GpuConfig& c) { c.l1.line_bytes *= 2; }},
      {"l2.line_bytes", [](sim::GpuConfig& c) { c.l2.line_bytes *= 2; }},
      {"l2_mshrs", [](sim::GpuConfig& c) { ++c.l2_mshrs; }},
      {"dram.scheduler_window",
       [](sim::GpuConfig& c) { ++c.dram.scheduler_window; }},
      {"dram_page_bytes", [](sim::GpuConfig& c) { c.dram_page_bytes *= 2; }},
  };
  for (const auto& [field, edit] : config_edits) {
    sim::GpuConfig edited = config;
    edit(edited);
    EXPECT_NE(base, experiment_key("bfs", scale, edited, options)) << field;
  }
  using OptionsEdit = void (*)(ComparisonOptions&);
  const std::vector<std::pair<const char*, OptionsEdit>> options_edits = {
      {"simpoint.kmeans.max_iterations",
       [](ComparisonOptions& o) { ++o.simpoint.kmeans.max_iterations; }},
      {"simpoint.kmeans.restarts",
       [](ComparisonOptions& o) { ++o.simpoint.kmeans.restarts; }},
      {"a double past its 6th digit",
       [](ComparisonOptions& o) { o.tbpoint.sampler.entry_fraction += 1e-9; }},
  };
  for (const auto& [field, edit] : options_edits) {
    ComparisonOptions edited = options;
    edit(edited);
    EXPECT_NE(base, experiment_key("bfs", scale, config, edited)) << field;
  }

  EXPECT_NE(base, experiment_key("sssp", scale, config, options));

  // The store address also covers the simulator model: the same
  // experiment key under another model is another entry.
  EXPECT_NE(experiment_store_key(base).id,
            store::make_key("row", "tbpoint-row-v3", base, base).id);
  EXPECT_EQ(experiment_store_key(base).id,
            store::make_key("row", "tbpoint-row-v3",
                            base + " model " + std::to_string(kModelVersion),
                            base)
                .id);
}

TEST(CacheTest, RowRoundTrips) {
  const std::string dir = ::testing::TempDir() + "/tbp_cache_test";
  std::filesystem::remove_all(dir);

  ExperimentRow row;
  row.workload = "bfs";
  row.irregular = true;
  row.n_launches = 14;
  row.total_blocks = 10619;
  row.total_warp_insts = 123456789;
  row.full_ipc = 2.25;
  row.random = {.ipc = 2.1, .err_pct = 6.7, .sample_pct = 10.0};
  row.simpoint = {.ipc = 2.2, .err_pct = 2.2, .sample_pct = 5.5};
  row.tbpoint = {.ipc = 2.24, .err_pct = 0.4, .sample_pct = 2.6};
  row.inter_skip_share = 0.25;
  row.simpoint_k = 7;
  row.tbp_clusters = 3;
  row.unit_insts = 50000;
  row.full_sim_seconds = 12.5;
  row.tbp_seconds = 1.5;

  ASSERT_TRUE(save_cached_row(dir, "test_key", row).ok());
  const auto loaded = load_cached_row(dir, "test_key");
  ASSERT_TRUE(loaded.has_value());
  // Rows that come back from disk are marked; the marker itself is never
  // persisted (the freshly built row above has from_cache == false).
  EXPECT_FALSE(row.from_cache);
  EXPECT_TRUE(loaded->from_cache);
  EXPECT_EQ(loaded->workload, "bfs");
  EXPECT_TRUE(loaded->irregular);
  EXPECT_EQ(loaded->n_launches, 14u);
  EXPECT_DOUBLE_EQ(loaded->full_ipc, 2.25);
  EXPECT_DOUBLE_EQ(loaded->tbpoint.sample_pct, 2.6);
  EXPECT_DOUBLE_EQ(loaded->inter_skip_share, 0.25);
  EXPECT_EQ(loaded->simpoint_k, 7u);
}

TEST(CacheTest, MissingRowIsNotFound) {
  const auto loaded = load_cached_row("/nonexistent_dir", "nope");
  ASSERT_FALSE(loaded.has_value());
  EXPECT_EQ(loaded.status().code(), StatusCode::kNotFound);
}

TEST(CacheTest, FlatRowFilesAreNeverServed) {
  // Rows live only in the cache directory's store.  A flat <key>.txt row
  // next to it is never read, whichever version it carries: the lookup
  // misses and cached_comparison recomputes.
  workloads::WorkloadScale scale;
  scale.divisor = 32;
  sim::GpuConfig config = sim::fermi_config();
  config.n_sms = 4;
  ComparisonOptions options;
  options.target_units = 60;
  const std::string key = experiment_key("stream", scale, config, options);
  const std::string fields =
      "stream 0 1 10 1000 99.5 1 1 1 1 1 1 1 1 1 1 1 1 0.5 1 1 100 1 1\n";
  const std::vector<std::pair<std::string, std::string>> rows = {
      {"v2", "tbpoint-row-v2\n" + fields},  // checksum-free
      {"v3", io::seal_artifact("tbpoint-row-v3", fields)},
  };
  for (const auto& [version, text] : rows) {
    SCOPED_TRACE(version);
    const std::string dir = ::testing::TempDir() + "/tbp_cache_flat_" + version;
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    {
      std::ofstream out(dir + "/" + key + ".txt");
      out << text;
    }
    const auto loaded = load_cached_row(dir, key);
    ASSERT_FALSE(loaded.has_value());
    EXPECT_EQ(loaded.status().code(), StatusCode::kNotFound);

    const std::size_t before = run_comparison_invocations();
    const ExperimentRow row =
        cached_comparison("stream", scale, config, options, dir);
    EXPECT_EQ(run_comparison_invocations(), before + 1);
    EXPECT_FALSE(row.from_cache);
    EXPECT_NE(row.full_ipc, 99.5);
  }
}

TEST(ModelVersionTest, IsTheModelFingerprintDigest) {
  // Moving a simulated result or a profile means regenerating the model
  // fingerprint (the model_fingerprint test), and this pin then forces
  // kModelVersion to follow, so rows cached by the old model stop being
  // served.
  std::ifstream in(TBP_MODEL_FINGERPRINT, std::ios::binary);
  ASSERT_TRUE(in.good()) << "cannot read " << TBP_MODEL_FINGERPRINT;
  std::ostringstream bytes;
  bytes << in.rdbuf();
  const std::uint32_t digest = crc32(bytes.str());
  char hex[16];
  std::snprintf(hex, sizeof hex, "0x%08x", digest);
  EXPECT_EQ(digest, kModelVersion)
      << TBP_MODEL_FINGERPRINT << " changed: set harness::kModelVersion in "
      << "src/harness/experiment.hpp to " << hex;
}

TEST(CacheTest, CorruptRowIsQuarantined) {
  const std::string dir = ::testing::TempDir() + "/tbp_cache_quarantine";
  std::filesystem::remove_all(dir);

  ExperimentRow row;
  row.workload = "bfs";
  row.n_launches = 14;
  row.full_ipc = 2.25;
  ASSERT_TRUE(save_cached_row(dir, "bad_key", row).ok());
  const std::filesystem::path path = cached_row_path(dir, "bad_key");
  ASSERT_TRUE(std::filesystem::exists(path));
  {
    std::ofstream out(path, std::ios::trunc);
    out << "tbp-store-entry-v1\nnot an entry at all\n";
  }
  // First lookup: structured corruption error, and the entry is deleted.
  const auto first = load_cached_row(dir, "bad_key");
  ASSERT_FALSE(first.has_value());
  EXPECT_EQ(first.status().code(), StatusCode::kCorrupt);
  EXPECT_FALSE(std::filesystem::exists(path));
  // Second lookup: clean miss, so the caller recomputes instead of failing
  // forever on the same bad entry.
  const auto second = load_cached_row(dir, "bad_key");
  ASSERT_FALSE(second.has_value());
  EXPECT_EQ(second.status().code(), StatusCode::kNotFound);
}

TEST(CacheTest, TornWriteRecoversByRecomputation) {
  // A torn (truncated) cache entry must not poison cached_comparison: it
  // quarantines the entry, recomputes, and rewrites a valid row.
  const std::string dir = ::testing::TempDir() + "/tbp_cache_torn";
  std::filesystem::remove_all(dir);

  workloads::WorkloadScale scale;
  scale.divisor = 32;
  sim::GpuConfig config = sim::fermi_config();
  config.n_sms = 4;
  ComparisonOptions options;
  options.target_units = 60;
  const ExperimentRow fresh =
      cached_comparison("stream", scale, config, options, dir);

  // Tear the entry: keep the first half of the bytes only.
  const std::string key = experiment_key("stream", scale, config, options);
  const std::filesystem::path path = cached_row_path(dir, key);
  ASSERT_TRUE(std::filesystem::exists(path));
  std::string text;
  {
    std::ifstream in(path);
    std::ostringstream buffer;
    buffer << in.rdbuf();
    text = buffer.str();
  }
  {
    std::ofstream out(path, std::ios::trunc);
    out << text.substr(0, text.size() / 2);
  }

  const ExperimentRow recovered =
      cached_comparison("stream", scale, config, options, dir);
  EXPECT_DOUBLE_EQ(recovered.full_ipc, fresh.full_ipc);
  EXPECT_DOUBLE_EQ(recovered.tbpoint.ipc, fresh.tbpoint.ipc);
  // The quarantined entry was rewritten and is valid again.
  const auto reloaded = load_cached_row(dir, key);
  ASSERT_TRUE(reloaded.has_value());
  EXPECT_DOUBLE_EQ(reloaded->full_ipc, fresh.full_ipc);
}

// ---- csv export ----

TEST(CsvTest, EscapesSpecialCharacters) {
  EXPECT_EQ(csv_escape("plain"), "plain");
  EXPECT_EQ(csv_escape("with,comma"), "\"with,comma\"");
  EXPECT_EQ(csv_escape("with\"quote"), "\"with\"\"quote\"");
  EXPECT_EQ(csv_escape("with\nnewline"), "\"with\nnewline\"");
  // Bare \r splits rows for CRLF-aware readers; it must be quoted too.
  EXPECT_EQ(csv_escape("with\rreturn"), "\"with\rreturn\"");
  EXPECT_EQ(csv_escape("crlf\r\nrow"), "\"crlf\r\nrow\"");
}

TEST(CsvTest, WritesHeaderAndRows) {
  ExperimentRow row;
  row.workload = "bfs";
  row.irregular = true;
  row.full_ipc = 2.5;
  row.tbpoint = {.ipc = 2.49, .err_pct = 0.4, .sample_pct = 10.0};

  std::ostringstream out;
  write_rows_csv(std::vector<ExperimentRow>{row}, out);
  const std::string text = out.str();
  EXPECT_NE(text.find("workload,type"), std::string::npos);
  EXPECT_NE(text.find("tbpoint_err_pct"), std::string::npos);
  EXPECT_NE(text.find("from_cache"), std::string::npos);
  EXPECT_NE(text.find("bfs,I,"), std::string::npos);
  // Exactly one header + one data line.
  EXPECT_EQ(std::count(text.begin(), text.end(), '\n'), 2);
}

TEST(CsvTest, FileRoundTripIsReadable) {
  ExperimentRow row;
  row.workload = "spmv";
  const std::string path = ::testing::TempDir() + "/tbp_csv_test.csv";
  ASSERT_TRUE(write_rows_csv_file(std::vector<ExperimentRow>{row}, path).ok());
  std::ifstream in(path);
  std::string header;
  ASSERT_TRUE(std::getline(in, header));
  EXPECT_NE(header.find("systematic_err_pct"), std::string::npos);
}

// ---- table printing ----

TEST(TableTest, FormatsAlignedColumns) {
  TablePrinter table({"name", "value"});
  table.add_row({"short", "1.00"});
  table.add_row({"much_longer_name", "2.00"});
  table.add_separator();
  table.add_row({"geomean", "1.41"});

  const std::string path = ::testing::TempDir() + "/tbp_table_test.txt";
  std::FILE* f = std::fopen(path.c_str(), "w");
  ASSERT_NE(f, nullptr);
  table.print(f);
  std::fclose(f);

  std::string contents;
  {
    std::FILE* in = std::fopen(path.c_str(), "r");
    char buffer[256];
    while (std::fgets(buffer, sizeof buffer, in)) contents += buffer;
    std::fclose(in);
  }
  EXPECT_NE(contents.find("much_longer_name"), std::string::npos);
  EXPECT_NE(contents.find("geomean"), std::string::npos);
  EXPECT_NE(contents.find("----"), std::string::npos);
}

TEST(TableTest, NumberFormatting) {
  EXPECT_EQ(fmt(3.14159, 2), "3.14");
  EXPECT_EQ(fmt(3.14159, 0), "3");
  EXPECT_EQ(fmt_pct(7.949, 2), "7.95%");
}

TEST(TableTest, GeomeanPct) {
  const std::vector<double> errors = {4.0, 1.0};
  EXPECT_NEAR(geomean_pct(errors), 2.0, 1e-12);
}

// ---- cli ----

/// An Args over `tokens`, as a binary named "prog" would see them.
[[nodiscard]] Args args_of(std::initializer_list<const char*> tokens) {
  std::vector<char*> argv = {const_cast<char*>("prog")};
  for (const char* token : tokens) argv.push_back(const_cast<char*>(token));
  return Args(static_cast<int>(argv.size()), argv.data(), "prog", "[flags]");
}

TEST(CliTest, ParsesCommonFlags) {
  Args args = args_of({"--scale", "8", "--seed", "42", "--benchmarks",
                       "bfs,mst", "--no-cache", "--jobs", "4"});
  const CommonFlags flags = parse_common_flags(args);
  args.finish();
  EXPECT_EQ(flags.scale.divisor, 8u);
  EXPECT_EQ(flags.scale.seed, 42u);
  EXPECT_EQ(flags.benchmarks, (std::vector<std::string>{"bfs", "mst"}));
  EXPECT_TRUE(flags.cache_dir.empty());
  EXPECT_EQ(flags.jobs, 4u);
}

TEST(CliTest, JobsDefaultsToHardwareConcurrency) {
  Args args = args_of({});
  const CommonFlags flags = parse_common_flags(args);
  EXPECT_GE(flags.jobs, 1u);
  EXPECT_EQ(flags.jobs, par::default_jobs());
}

TEST(CliTest, DefaultsToAllBenchmarks) {
  Args args = args_of({});
  const CommonFlags flags = parse_common_flags(args);
  EXPECT_EQ(flags.benchmark_list().size(), 12u);
  EXPECT_EQ(flags.cache_dir, "tbpoint_cache");
}

TEST(CliTest, ValidateScaleRejectsZeroDivisor) {
  workloads::WorkloadScale scale;
  scale.divisor = 0;
  const Status st = validate_scale(scale);
  EXPECT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);

  scale.divisor = 1;
  EXPECT_TRUE(validate_scale(scale).ok());
  scale.divisor = 64;
  EXPECT_TRUE(validate_scale(scale).ok());
}

TEST(CliTest, ScaleZeroExitsWithUsageError) {
  // read_scale exits(2) on --scale 0, so drive it in a death test; the
  // message names the flag so the user knows what to fix.
  EXPECT_EXIT(
      {
        Args args = args_of({"--scale", "0"});
        (void)read_scale(args);
      },
      testing::ExitedWithCode(2), "invalid value for --scale");
}

TEST(CliTest, StrictU64Parsing) {
  ASSERT_TRUE(parse_u64("42").has_value());
  EXPECT_EQ(*parse_u64("42"), 42u);
  EXPECT_EQ(*parse_u64("0x10", 0), 16u);
  EXPECT_EQ(*parse_u64("18446744073709551615"), ~std::uint64_t{0});

  for (const char* bad : {"", "abc", "12abc", "-3", "+5", " 7", "1.5",
                          "18446744073709551616"}) {
    const auto parsed = parse_u64(bad);
    EXPECT_FALSE(parsed.has_value()) << "accepted '" << bad << "'";
    EXPECT_EQ(parsed.status().code(), StatusCode::kInvalidArgument);
  }
}

TEST(CliTest, StrictU32Parsing) {
  EXPECT_EQ(*parse_u32("4294967295"), 4294967295u);
  EXPECT_FALSE(parse_u32("4294967296").has_value());
  EXPECT_FALSE(parse_u32("eight").has_value());
}

TEST(CliTest, StrictDoubleParsing) {
  EXPECT_DOUBLE_EQ(*parse_double("0.25"), 0.25);
  EXPECT_DOUBLE_EQ(*parse_double("-1.5e3"), -1500.0);
  for (const char* bad : {"", "abc", "0.5x", "1.2.3"}) {
    EXPECT_FALSE(parse_double(bad).has_value()) << "accepted '" << bad << "'";
  }
}

TEST(CliTest, GpuSizeBounds) {
  EXPECT_TRUE(validate_gpu_size(1).ok());
  EXPECT_TRUE(validate_gpu_size(1024).ok());
  for (const std::uint64_t bad : {std::uint64_t{0}, std::uint64_t{1025},
                                  std::uint64_t{4294967310}}) {
    const Status st = validate_gpu_size(bad);
    EXPECT_EQ(st.code(), StatusCode::kInvalidArgument) << bad;
    EXPECT_EQ(st.message(), "must be in [1, 1024]");
  }
}

TEST(ArgsTest, ValueFlagTakesBothSpellings) {
  Args args = args_of({"--scale", "8", "--seed=0x10", "--cache-dir=a=b"});
  const workloads::WorkloadScale scale = read_scale(args);
  EXPECT_EQ(scale.divisor, 8u);
  EXPECT_EQ(scale.seed, 16u);
  EXPECT_EQ(args.value("--cache-dir"), "a=b");
  EXPECT_EQ(args.value("--csv"), std::nullopt);
  EXPECT_EQ(args.u32("--sms"), std::nullopt);
  args.finish();
}

TEST(ArgsTest, PositionalsLeadAndSwitchesTakeNoValue) {
  Args args = args_of({"run", "stream", "--gto", "--p", "-0.5"});
  EXPECT_EQ(args.positional(), "run");
  EXPECT_EQ(args.positional(), "stream");
  EXPECT_EQ(args.positional(), "");
  EXPECT_TRUE(args.flag("--gto"));
  EXPECT_FALSE(args.flag("--no-inter"));
  EXPECT_EQ(args.real("--p"), -0.5);
  args.finish();
}

TEST(ArgsTest, SwitchGivenAValueExits) {
  EXPECT_EXIT(
      {
        Args args = args_of({"--no-inter=1"});
        (void)args.flag("--no-inter");
      },
      testing::ExitedWithCode(2), "--no-inter takes no value(.|\n)*usage: prog");
}

TEST(ArgsTest, MissingValueExits) {
  EXPECT_EXIT(
      {
        Args args = args_of({"--csv"});
        (void)args.value("--csv");
      },
      testing::ExitedWithCode(2), "prog: missing value for --csv");
  // A `--` token is never a value: `--csv --no-cache` must not write a
  // file named --no-cache.
  EXPECT_EXIT(
      {
        Args args = args_of({"--csv", "--no-cache"});
        (void)args.flag("--no-cache");
        (void)args.value("--csv");
      },
      testing::ExitedWithCode(2), "missing value for --csv");
  EXPECT_EXIT(
      {
        Args args = args_of({"--manifest="});
        (void)args.value("--manifest");
      },
      testing::ExitedWithCode(2), "missing value for --manifest");
}

TEST(ArgsTest, RepeatedFlagExits) {
  EXPECT_EXIT(
      {
        Args args = args_of({"--jobs", "2", "--jobs=3"});
        (void)read_jobs(args);
      },
      testing::ExitedWithCode(2), "--jobs given twice(.|\n)*usage: prog");
  EXPECT_EXIT(
      {
        Args args = args_of({"--benchmarks", "bfs,stream,bfs"});
        (void)read_benchmarks(args, {});
      },
      testing::ExitedWithCode(2),
      "benchmark 'bfs' given twice(.|\n)*usage: prog");
}

TEST(ArgsTest, UnreadFlagExits) {
  EXPECT_EXIT(
      {
        Args args = args_of({"--scael", "64"});
        (void)read_scale(args);
        args.finish();
      },
      testing::ExitedWithCode(2), "unknown flag --scael(.|\n)*usage: prog");
  EXPECT_EXIT(
      {
        Args args = args_of({"--launch=0"});
        args.finish();
      },
      testing::ExitedWithCode(2), "unknown flag --launch\n");
}

TEST(ArgsTest, StrayPositionalExits) {
  EXPECT_EXIT(
      {
        Args args = args_of({"--no-cache", "extra"});
        (void)args.flag("--no-cache");
        args.finish();
      },
      testing::ExitedWithCode(2), "unexpected argument 'extra'");
  EXPECT_EXIT(
      {
        Args args = args_of({"replay", "5", "6"});
        (void)args.positional();
        (void)args.positional();
        args.finish();
      },
      testing::ExitedWithCode(2), "unexpected argument '6'");
}

TEST(ArgsTest, MalformedNumbersExit) {
  EXPECT_EXIT(
      {
        Args args = args_of({"--jobs", "0"});
        (void)read_jobs(args);
      },
      testing::ExitedWithCode(2), "prog: invalid value for --jobs: must be >= 1");
  EXPECT_EXIT(
      {
        Args args = args_of({"--sms=4294967310"});
        (void)args.u32("--sms");
      },
      testing::ExitedWithCode(2), "invalid value for --sms: .*out of range");
  EXPECT_EXIT(
      {
        Args args = args_of({"--benchmarks", "bfs,nosuch"});
        (void)read_benchmarks(args, {});
      },
      testing::ExitedWithCode(2), "unknown benchmark 'nosuch'");
}

}  // namespace
}  // namespace tbp::harness
