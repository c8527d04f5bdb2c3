#include "fuzz/oracle.hpp"

#include <cmath>
#include <sstream>
#include <utility>

#include "harness/manifest.hpp"
#include "obs/report.hpp"
#include "trace/validate.hpp"

namespace tbp::fuzz {
namespace {

/// Dominant attribution component, by absolute signed percentage.  Empty
/// when the attribution is degenerate (the oracle then reports the raw
/// error only).
[[nodiscard]] std::string dominant_stage(
    const core::ErrorAttribution& attribution) {
  if (!attribution.valid) return {};
  const double inter = std::abs(attribution.inter_error_pct());
  const double warmup = std::abs(attribution.warmup_error_pct());
  const double recon = std::abs(attribution.reconstruction_error_pct());
  if (inter >= warmup && inter >= recon) return "inter-launch";
  if (warmup >= recon) return "warm-up";
  return "reconstruction";
}

}  // namespace

const char* oracle_stage_name(OracleStage stage) noexcept {
  switch (stage) {
    case OracleStage::kTrace: return "trace";
    case OracleStage::kAccuracy: return "accuracy";
    case OracleStage::kCounts: return "counts";
    case OracleStage::kParallel: return "parallel";
  }
  return "trace";
}

std::string OracleReport::violation_tag() const {
  if (violations.empty()) return "none";
  // Stage order, each stage at most once (violations arrive stage-grouped).
  std::string tag;
  for (const OracleStage stage :
       {OracleStage::kTrace, OracleStage::kAccuracy, OracleStage::kCounts,
        OracleStage::kParallel}) {
    bool hit = false;
    for (const OracleViolation& v : violations) hit = hit || v.stage == stage;
    if (!hit) continue;
    if (!tag.empty()) tag += '+';
    tag += oracle_stage_name(stage);
  }
  return tag;
}

void check_trace(const workloads::Workload& workload,
                 std::vector<OracleViolation>& out) {
  const auto sources = workload.sources();
  for (std::size_t i = 0; i < sources.size(); ++i) {
    const trace::ValidationReport report = trace::validate_launch(*sources[i]);
    if (report.ok()) continue;
    out.push_back(OracleViolation{
        OracleStage::kTrace,
        "launch " + std::to_string(i) + ": " + report.summary(), {}});
  }
}

void check_accuracy(const harness::ExperimentRow& row,
                    const OracleBounds& bounds,
                    std::vector<OracleViolation>& out) {
  if (row.tbpoint.err_pct <= bounds.max_tbpoint_err_pct) return;
  std::ostringstream detail;
  detail << "tbpoint err " << row.tbpoint.err_pct << "% > bound "
         << bounds.max_tbpoint_err_pct << "% (full ipc " << row.full_ipc
         << ", tbpoint ipc " << row.tbpoint.ipc << ")";
  const std::string stage = dominant_stage(row.attribution);
  if (!stage.empty()) {
    detail << "; dominant component: " << stage << " (inter "
           << row.attribution.inter_error_pct() << "%, warm-up "
           << row.attribution.warmup_error_pct() << "%, reconstruction "
           << row.attribution.reconstruction_error_pct() << "%)";
  }
  out.push_back(
      OracleViolation{OracleStage::kAccuracy, std::move(detail).str(), stage});
}

void check_counts(const harness::ExperimentRow& row,
                  std::vector<OracleViolation>& out) {
  if (row.full_retired_warp_insts == row.total_warp_insts) return;
  out.push_back(OracleViolation{
      OracleStage::kCounts,
      "profiler counted " + std::to_string(row.total_warp_insts) +
          " warp insts but the full simulation retired " +
          std::to_string(row.full_retired_warp_insts),
      {}});
}

void check_parallel(const harness::ExperimentRow& serial,
                    const harness::ExperimentRow& parallel,
                    std::vector<OracleViolation>& out) {
  // row_to_value excludes wall-clock fields by design, so the two
  // serializations must be byte-equal.
  const std::string serial_bytes =
      obs::json_serialize(harness::row_to_value(serial));
  const std::string parallel_bytes =
      obs::json_serialize(harness::row_to_value(parallel));
  if (serial_bytes == parallel_bytes) return;
  std::size_t diverge = 0;
  while (diverge < serial_bytes.size() && diverge < parallel_bytes.size() &&
         serial_bytes[diverge] == parallel_bytes[diverge]) {
    ++diverge;
  }
  out.push_back(OracleViolation{
      OracleStage::kParallel,
      "serial and parallel (jobs>1) manifest rows diverge at byte " +
          std::to_string(diverge) + " (serial " +
          std::to_string(serial_bytes.size()) + " bytes, parallel " +
          std::to_string(parallel_bytes.size()) + " bytes)",
      {}});
}

OracleReport check_workload(const workloads::WorkloadSpec& spec,
                            const sim::GpuConfig& config,
                            const OracleBounds& bounds) {
  OracleReport report;
  if (Status valid = workloads::validate_spec(spec); !valid.ok()) {
    report.violations.push_back(OracleViolation{
        OracleStage::kTrace, "invalid spec: " + valid.message(), {}});
    return report;
  }
  const workloads::Workload workload = workloads::build_workload(spec);

  if (bounds.run_trace) check_trace(workload, report.violations);

  if (bounds.run_accuracy || bounds.run_counts || bounds.run_parallel) {
    harness::ComparisonOptions options;
    options.jobs = 1;
    report.row = harness::run_comparison(workload, config, options);
    if (bounds.run_accuracy) {
      check_accuracy(report.row, bounds, report.violations);
    }
    if (bounds.run_counts) check_counts(report.row, report.violations);
    if (bounds.run_parallel) {
      harness::ComparisonOptions parallel_options;
      parallel_options.jobs = bounds.parallel_jobs;
      const harness::ExperimentRow parallel_row =
          harness::run_comparison(workload, config, parallel_options);
      check_parallel(report.row, parallel_row, report.violations);
    }
  }
  return report;
}

}  // namespace tbp::fuzz
