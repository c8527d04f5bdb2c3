// tbp_lint driver: collects sources, runs the two-pass pipeline, applies
// inline suppressions and renders reports.
//
// Pipeline: pass one builds a FileSummary per file — local rules plus the
// symbol facts; pass two runs, file by file, the pair rules (a .cpp with
// its header's summary) and the layering check, then applies that file's
// suppressions.
//
// Suppression syntax, checked by the `lint-suppression` meta-rule:
//
//   code();  // tbp-lint: allow(rule-a, rule-b) -- why this is sound
//
// A comment that starts its own line suppresses the next line instead, so
// long statements can carry the justification above them.  The
// justification after `--` is mandatory: an allow without a reason is
// itself a finding — the suppression file is meant to read as a list of
// audited exceptions, not a mute button.
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

#include "lint/graph.hpp"
#include "lint/rules.hpp"
#include "lint/symbols.hpp"

namespace tbp_lint {

struct LintOptions {
  std::string root;  ///< repository root; scanned paths are relative to it
  std::vector<std::string> subdirs = {"src", "tools", "bench", "tests"};
  /// Path prefixes never scanned (deliberately-broken lint fixtures).
  std::vector<std::string> excludes = {"tests/lint/fixtures"};
  LintConfig config = default_config();
};

struct LintResult {
  std::vector<Diagnostic> diagnostics;  ///< sorted by (file, line, rule)
  std::size_t files_scanned = 0;
  std::size_t suppressions_used = 0;
  bool io_error = false;
  std::string io_message;
};

[[nodiscard]] LintResult run_lint(const LintOptions& options);

/// Lints one in-memory source as repo-relative `path` under `config` —
/// every rule (the pair rules without a companion header) and suppressions
/// applied; used by the fixture tests.
[[nodiscard]] std::vector<Diagnostic> lint_source(const std::string& path,
                                                  const std::string& source,
                                                  const LintConfig& config);

enum class OutputFormat { kText, kGithub, kSarif };

[[nodiscard]] std::string format_diagnostic(const Diagnostic& diag,
                                            OutputFormat format);

/// SARIF 2.1.0 document: one run, the full rule registry in
/// tool.driver.rules, one result per diagnostic.
[[nodiscard]] std::string render_sarif(const LintResult& result);

/// Diagnostics to `out` (one per line; one whole document for SARIF);
/// summary to `err`.
void print_report(const LintResult& result, OutputFormat format,
                  std::ostream& out, std::ostream& err);

/// 0 clean, 1 findings (errors always; warnings only when `werror`),
/// 2 I/O or usage failure.
[[nodiscard]] int lint_exit_code(const LintResult& result, bool werror);

}  // namespace tbp_lint
