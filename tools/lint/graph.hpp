// The include-graph checks for tbp_lint, each reading one file's summary
// at a time.  Layering holds the include graph against the module rank
// table: an edge is legal within a module or from a higher rank to a
// strictly lower one.  Prof-isolation keeps `#include "prof/..."` inside
// src/prof and the configured allowlist (the instrumented layers and the
// tools that render sidecars): a module that cannot name a ProfSession
// cannot route a wall-clock reading into simulated results.
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

/// prof-isolation over one file's includes.
void run_prof_isolation(const FileSummary& summary, const LintConfig& config,
                        std::vector<Diagnostic>* out);

}  // namespace tbp_lint
