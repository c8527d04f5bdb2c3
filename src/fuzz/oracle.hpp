// Differential verification oracles.
//
// A fuzz seed is only as useful as the invariants checked against the
// workload it generates.  The generator has no idea what the *right* IPC
// for a random workload is — but the pipeline makes several promises that
// need no external ground truth, because one part of the system is checked
// against another:
//
//   kTrace     every generated launch satisfies trace::validate_launch
//              (structural well-formedness of the trace layer itself).
//   kAccuracy  TBPoint's sampled IPC stays within a configured error bound
//              of the full simulation it claims to approximate.  On
//              violation, core::attribute_errors names the pipeline stage
//              (inter-launch projection / warm-up / reconstruction) that
//              dominates the error.
//   kCounts    the functional profiler and the timing simulator walk the
//              same traces, so profiled warp instructions must equal
//              retired warp instructions exactly.
//   kParallel  run_comparison(jobs=1) and run_comparison(jobs=N) must
//              produce byte-identical manifest rows (the determinism
//              contract tbp-lint guards statically, checked dynamically).
//
// All checks are deterministic: the same spec, config and bounds always
// produce the same OracleReport.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "harness/experiment.hpp"
#include "sim/config.hpp"
#include "workloads/parametric.hpp"

namespace tbp::fuzz {

enum class OracleStage : std::uint8_t {
  kTrace,
  kAccuracy,
  kCounts,
  kParallel,
};

/// Stable short name ("trace", "accuracy", "counts", "parallel").
[[nodiscard]] const char* oracle_stage_name(OracleStage stage) noexcept;

/// Configuration for one oracle evaluation.  The run_* switches let the
/// shrinker re-check only the stages that originally failed (dropping, say,
/// the comparison runs the accuracy, counts and parallel checks cost when
/// only the trace oracle tripped).
struct OracleBounds {
  /// Accuracy oracle: maximum tolerated |TBPoint - full| / full * 100.
  /// Calibrated against the generator's default limits: a 300-seed sweep
  /// topped out at 4.75%, so 15% is ~3x headroom over the observed worst
  /// case yet small enough that a real regression in clustering or
  /// reconstruction trips it.
  double max_tbpoint_err_pct = 15.0;
  /// Jobs value the parallel-determinism oracle compares against jobs=1.
  std::size_t parallel_jobs = 4;

  bool run_trace = true;
  bool run_accuracy = true;
  bool run_counts = true;
  bool run_parallel = true;
};

/// One violated invariant.
struct OracleViolation {
  OracleStage stage = OracleStage::kTrace;
  /// Human-readable description with the offending values.
  std::string detail;
  /// kAccuracy only: the dominant error component per attribute_errors
  /// ("inter-launch" / "warm-up" / "reconstruction"), empty when the
  /// attribution is degenerate.
  std::string attributed_stage;
};

/// The outcome of checking one spec.
struct OracleReport {
  std::vector<OracleViolation> violations;
  /// The serial (jobs=1) comparison row, for diagnostics; default-initialized
  /// when no enabled stage needed a comparison run.
  harness::ExperimentRow row;

  [[nodiscard]] bool ok() const noexcept { return violations.empty(); }
  /// "accuracy+parallel"-style tag over the distinct violated stages, in
  /// stage order; "none" when ok.  Used to label reproducer files.
  [[nodiscard]] std::string violation_tag() const;
};

/// Builds the spec's workload and runs every enabled oracle stage.
[[nodiscard]] OracleReport check_workload(const workloads::WorkloadSpec& spec,
                                          const sim::GpuConfig& config,
                                          const OracleBounds& bounds);

/// Individual stages, exposed for targeted tests.  Each appends to `out`.
void check_trace(const workloads::Workload& workload,
                 std::vector<OracleViolation>& out);
void check_accuracy(const harness::ExperimentRow& row,
                    const OracleBounds& bounds,
                    std::vector<OracleViolation>& out);
void check_counts(const harness::ExperimentRow& row,
                  std::vector<OracleViolation>& out);
/// Compares the two rows' manifest serializations byte for byte.
void check_parallel(const harness::ExperimentRow& serial,
                    const harness::ExperimentRow& parallel,
                    std::vector<OracleViolation>& out);

}  // namespace tbp::fuzz
