// Shared main() for the google-benchmark micro benches: runs the normal
// console reporting, and with `--perf-json PATH` additionally captures every
// benchmark's measured real time into a sealed tbp-bench-perf-v1 document
// (the BENCH_PERF.json the CI perf-trajectory gate feeds to
// `tbp-report compare`).
//
// All timing numbers come from google-benchmark's own measurement machinery
// — this header takes no clock readings of its own, so the determinism lint
// has nothing to flag; the emitted file is wall-clock data and therefore
// makes no byte-identity promise (unlike run manifests).
#pragma once

#include <benchmark/benchmark.h>

#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "obs/report.hpp"
#include "support/parallel.hpp"

namespace tbp::bench {

/// Console reporter that also accumulates per-benchmark real time.
class PerfCaptureReporter : public benchmark::ConsoleReporter {
 public:
  void ReportRuns(const std::vector<Run>& runs) override {
    for (const Run& run : runs) {
      if (run.error_occurred) continue;
      const double iterations = static_cast<double>(run.iterations);
      obs::JsonValue entry = obs::JsonValue::object();
      entry.set("iteration_seconds",
                iterations > 0.0 ? run.real_accumulated_time / iterations : 0.0);
      entry.set("iterations", static_cast<std::uint64_t>(run.iterations));
      entries_.set(run.benchmark_name(), std::move(entry));
      total_seconds_ += run.real_accumulated_time;
    }
    benchmark::ConsoleReporter::ReportRuns(runs);
  }

  [[nodiscard]] obs::JsonValue body(const std::string& bench_name) && {
    obs::JsonValue body = obs::JsonValue::object();
    body.set("bench", bench_name);
    body.set("entries", std::move(entries_));
    body.set("wall_seconds", total_seconds_);
    body.set("nproc", static_cast<std::uint64_t>(par::default_jobs()));
    return body;
  }

 private:
  obs::JsonValue entries_ = obs::JsonValue::object();
  double total_seconds_ = 0.0;
};

/// Drop-in replacement for BENCHMARK_MAIN(): google-benchmark flags pass
/// through untouched; `--perf-json PATH` (or `--perf-json=PATH`) is peeled
/// off first because the benchmark library rejects flags it does not know.
inline int run_micro_bench(const std::string& bench_name, int argc,
                           char** argv) {
  static const std::string kFlag = "--perf-json";
  std::string perf_path;
  std::vector<char*> filtered;
  if (argc > 0) filtered.push_back(argv[0]);
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == kFlag && i + 1 < argc) {
      perf_path = argv[++i];
    } else if (arg.rfind(kFlag + "=", 0) == 0) {
      perf_path = arg.substr(kFlag.size() + 1);
    } else {
      filtered.push_back(argv[i]);
    }
  }
  int filtered_argc = static_cast<int>(filtered.size());
  benchmark::Initialize(&filtered_argc, filtered.data());
  if (benchmark::ReportUnrecognizedArguments(filtered_argc, filtered.data())) {
    return 1;
  }

  PerfCaptureReporter reporter;
  benchmark::RunSpecifiedBenchmarks(&reporter);

  if (!perf_path.empty()) {
    const Status status = obs::write_json_file(
        obs::seal_json(obs::kBenchPerfSchema,
                       std::move(reporter).body(bench_name)),
        perf_path);
    if (status.ok()) {
      std::fprintf(stderr, "[bench] wrote %s\n", perf_path.c_str());
    } else {
      std::fprintf(stderr, "[bench] cannot write %s: %s\n", perf_path.c_str(),
                   status.to_string().c_str());
      return 1;
    }
  }
  benchmark::Shutdown();
  return 0;
}

}  // namespace tbp::bench
