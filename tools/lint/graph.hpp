// The layering pass for tbp_lint: the include graph against the module
// rank table.  An edge is legal within a module or from a higher rank to a
// strictly lower one.  It reads one file's summary at a time.
#pragma once

#include <string>
#include <vector>

#include "lint/symbols.hpp"

namespace tbp_lint {

/// Module of a repo-relative path: "src/X/..." → "X", otherwise the first
/// path segment ("tools", "bench", "tests").  Second segment wins when it
/// has its own rank entry ("tools/lint" → "lint").
[[nodiscard]] std::string module_of_file(const std::string& path,
                                         const LintConfig& config);

/// layering over one file's includes.
void run_layering(const FileSummary& summary, const LintConfig& config,
                  std::vector<Diagnostic>* out);

}  // namespace tbp_lint
