// Per-file symbol summaries for tbp_lint's two-pass pipeline.
//
// Pass one (this header) reduces each translation unit to a `FileSummary`:
// local diagnostics plus the symbol facts the cross-file passes need —
// TBP_GUARDED_BY annotations, include edges, Status/Result declarators.
// A summary is a pure function of (file bytes, paired-header bytes,
// config).
//
// Annotation grammar (DESIGN.md "Static invariants"):
//
//   // TBP_GUARDED_BY(m)            field annotation: reads/writes require
//   //                              mutex `m` held in the enclosing scope
//
// A trailing comment annotates its own line; an own-line comment annotates
// the next line (same convention as suppressions).
#pragma once

#include <string>
#include <vector>

#include "lint/rules.hpp"

namespace tbp_lint {

/// A TBP_GUARDED_BY(mutex)-annotated field.
struct FieldSymbol {
  std::string name;
  int line = 0;
  std::string guarded_by;  ///< mutex name
};

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
/// pair-rule diagnostics; cross-pass diagnostics are computed over the
/// whole summary set and merged in by the driver.
struct FileSummary {
  std::string path;
  std::vector<Diagnostic> local;
  std::vector<Suppression> suppressions;
  std::vector<FieldSymbol> fields;
  std::vector<IncludeRef> includes;
  std::vector<StatusFunction> status_functions;
  std::vector<CodeRef> discard_candidates;
  std::vector<std::string> unordered_names;
  std::vector<std::string> sorted_names;
};

/// Parses `tbp-lint: allow(a, b) -- reason` out of one comment, if present.
/// Any comment opening with the `tbp-lint:` marker is a suppression; one
/// without an allow clause has no rules and is reported as malformed.
[[nodiscard]] bool parse_suppression(const Comment& comment, Suppression* out);

/// Pass one over a single file: local rules, annotation parsing, symbol
/// extraction.  Does not need the companion header.
[[nodiscard]] FileSummary build_file_summary(const std::string& path,
                                             const LexedFile& lexed,
                                             const LintConfig& config);

/// Pair rules (unordered-iter with merged declared names, guarded-by with
/// merged field annotations) over this file's tokens; diagnostics append to
/// summary->local.  `companion` is the paired header's summary, or null.
void run_pair_rules(const std::string& path, const LexedFile& lexed,
                    const LintConfig& config, const FileSummary* companion,
                    FileSummary* summary);

}  // namespace tbp_lint
