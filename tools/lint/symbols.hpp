// Per-file symbol summaries for tbp_lint's pipeline.
//
// Pass one (this header) reduces each translation unit to a `FileSummary`:
// local diagnostics plus the symbol facts the later rules need — declared
// container names (a .cpp also reads its paired header's) and include
// edges for the layering and prof-isolation checks.  A summary is a pure
// function of (file bytes, paired-header bytes, config).
#pragma once

#include <string>
#include <vector>

#include "lint/rules.hpp"

namespace tbp_lint {

struct IncludeRef {
  std::string target;  ///< the path between quotes/brackets
  int line = 0;
};

/// A parsed `tbp-lint: allow(...)` comment (see driver.hpp for syntax).
struct Suppression {
  int line = 0;
  bool next_line = false;  ///< own-line comment: also covers line + 1
  std::vector<std::string> rules;
  bool justified = false;
};

/// Everything the pipeline keeps per file.  `local` holds single-file and
/// pair-rule diagnostics; the driver adds the include-graph diagnostics.
struct FileSummary {
  std::string path;
  std::vector<Diagnostic> local;
  std::vector<Suppression> suppressions;
  std::vector<IncludeRef> includes;
  std::vector<std::string> unordered_names;
  std::vector<std::string> sorted_names;
};

/// Parses `tbp-lint: allow(a, b) -- reason` out of one comment, if present.
/// Any comment opening with the `tbp-lint:` marker is a suppression; one
/// without an allow clause has no rules and is reported as malformed.
[[nodiscard]] bool parse_suppression(const Comment& comment, Suppression* out);

/// Pass one over a single file: local rules and symbol extraction.  Does
/// not need the companion header.
[[nodiscard]] FileSummary build_file_summary(const std::string& path,
                                             const LexedFile& lexed,
                                             const LintConfig& config);

/// The pair rule (unordered-iter with the pair's merged declared names)
/// over this file's tokens; diagnostics append to summary->local.
/// `companion` is the paired header's summary, or null.
void run_pair_rules(const std::string& path, const LexedFile& lexed,
                    const LintConfig& config, const FileSummary* companion,
                    FileSummary* summary);

}  // namespace tbp_lint
