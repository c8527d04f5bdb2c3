// Rule definitions for tbp_lint.
//
// Each rule protects a repo invariant (DESIGN.md "Static invariants"):
// determinism rules keep the bit-identical `--jobs`/observation guarantees
// enforceable at review time instead of only by the runtime property tests;
// the lock-discipline / layering families keep the concurrency and module
// contracts honest; hygiene rules are cheap tripwires.  The Status/Result
// contract is not a lint rule: both types are [[nodiscard]] and every tree
// builds with -Werror=unused-result, so the compiler rejects a dropped
// error.  Rules are token-pattern heuristics, tuned to this codebase —
// false positives are handled by the inline suppression syntax (see
// driver.hpp), which requires a written justification.
//
// This header holds the shared vocabulary (diagnostics, configuration) and
// the *local* rules: checks that read one file's tokens, or one file plus
// its paired header.  The layering pass lives in graph.hpp and reads the
// per-file summaries built by symbols.hpp.
#pragma once

#include <string>
#include <unordered_set>
#include <utility>
#include <vector>

#include "lint/lexer.hpp"

namespace tbp_lint {

enum class Severity { kWarning, kError };

struct Diagnostic {
  std::string file;  ///< repo-relative, forward slashes
  int line = 0;
  std::string rule;
  Severity severity = Severity::kError;
  std::string message;
};

struct RuleInfo {
  const char* id;
  Severity severity;
  const char* summary;
};

/// Every rule the linter can emit, in stable display order.
[[nodiscard]] const std::vector<RuleInfo>& rule_registry();

/// Default severity for a rule id (kError for unknown ids).
[[nodiscard]] Severity rule_severity(const std::string& rule);

/// Path allowlists and scope configuration.  Entries are repo-relative
/// path *prefixes* ("bench/" covers the directory, a full file path covers
/// one file).  `default_config()` encodes the repo policy; tests build
/// their own to point the rules at fixture files.
struct LintConfig {
  /// Files allowed to read wall clocks (timing harness, bench wall-clock).
  std::vector<std::string> clock_allowlist;
  /// Files allowed to read the environment.
  std::vector<std::string> getenv_allowlist;
  /// Files allowed naked new/delete (low-level ownership code).
  std::vector<std::string> raw_memory_allowlist;
  /// Translation units whose iteration order can reach an artifact, metric
  /// snapshot or trace: serialization, export, metrics translation.
  std::vector<std::string> order_sensitive;

  /// Files allowed to `#include "prof/..."` (prof-isolation): the
  /// instrumented layers and the tools that render sidecars.  src/prof
  /// itself is always allowed.  Keeps the wall-clock self-profiling layer
  /// out of the deterministic core modules entirely — a module that cannot
  /// name a ProfSession cannot leak a clock reading into results.
  std::vector<std::string> prof_include_allowlist;

  /// Module → rank table for the layering pass: an include edge is legal
  /// only within one module or from a higher rank to a strictly lower one.
  /// Empty disables the pass.
  std::vector<std::pair<std::string, int>> layer_ranks;
};

[[nodiscard]] LintConfig default_config();

[[nodiscard]] bool path_matches(const std::string& path,
                                const std::vector<std::string>& prefixes);
[[nodiscard]] bool is_header(const std::string& path);

/// Single-file rules (determinism-*, pragma-once, naked-new): everything
/// they read is in this file's tokens plus the config.
void run_local_rules(const std::string& path, const LexedFile& lexed,
                     const LintConfig& config, std::vector<Diagnostic>* out);

/// Names declared with an unordered (or std:: sorted) container type in
/// this file — inputs to the iteration rule, recorded in the file summary
/// so the paired .cpp can see header-declared members without re-lexing.
void collect_container_names(const LexedFile& lexed,
                             std::vector<std::string>* unordered_names,
                             std::vector<std::string>* sorted_names);

/// The unordered-iteration check over one file, with the pair's combined
/// declared-name sets passed in.
void check_unordered_iteration(
    const std::string& path, const LexedFile& lexed, const LintConfig& config,
    const std::unordered_set<std::string>& unordered_names,
    const std::unordered_set<std::string>& sorted_names,
    std::vector<Diagnostic>* out);

}  // namespace tbp_lint
