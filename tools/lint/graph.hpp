// Cross-file passes for tbp_lint: everything that needs more than one
// file's summary.  These run over the full summary set every invocation.
//
//  - Error discipline: the Status/Result name index feeds the
//    nodiscard-status inheritance check and discarded-status call check.
//  - Layering: the include graph against the module rank table; an edge is
//    legal within a module or from a higher rank to a strictly lower one.
#pragma once

#include <string>
#include <vector>

#include "lint/symbols.hpp"

namespace tbp_lint {

/// Tree-wide Status/Result-returning function names (sorted, unique).
struct StatusIndex {
  std::vector<std::string> function_names;  ///< any declarator
  std::vector<std::string> declared_names;  ///< prototypes only
};

[[nodiscard]] StatusIndex build_status_index(
    const std::vector<FileSummary>& summaries);

/// nodiscard-status + discarded-status for one file, against the index.
void run_status_rules(const FileSummary& summary, const StatusIndex& index,
                      std::vector<Diagnostic>* out);

/// Module of a repo-relative path: "src/X/..." → "X", otherwise the first
/// path segment ("tools", "bench", "tests").  Second segment wins when it
/// has its own rank entry ("tools/lint" → "lint").
[[nodiscard]] std::string module_of_file(const std::string& path,
                                         const LintConfig& config);

/// layering over one file's includes.
void run_layering(const FileSummary& summary, const LintConfig& config,
                  std::vector<Diagnostic>* out);

}  // namespace tbp_lint
