#include "lint/symbols.hpp"

#include <sstream>
#include <unordered_set>

namespace tbp_lint {
namespace {

[[nodiscard]] std::string trim(std::string_view s) {
  std::size_t b = 0;
  std::size_t e = s.size();
  while (b < e && (s[b] == ' ' || s[b] == '\t')) ++b;
  while (e > b && (s[e - 1] == ' ' || s[e - 1] == '\t' || s[e - 1] == '\r'))
    --e;
  return std::string(s.substr(b, e - b));
}

}  // namespace

bool parse_suppression(const Comment& comment, Suppression* out) {
  // The marker must open the comment: prose that merely *mentions* the
  // syntax (docs, this linter's own sources) stays inert.
  const std::string text = trim(comment.text);
  constexpr std::string_view kMarker = "tbp-lint:";
  if (text.rfind(kMarker, 0) != 0) return false;
  out->line = comment.line;
  out->next_line = comment.own_line;
  out->rules.clear();
  out->justified = false;

  const std::size_t allow = text.find("allow(");
  if (allow == std::string::npos) return true;  // malformed, still a marker
  const std::size_t open = allow + 5;
  const std::size_t close = text.find(')', open);
  if (close == std::string::npos) return true;
  std::string inner = text.substr(open + 1, close - open - 1);
  std::stringstream list(inner);
  std::string rule;
  while (std::getline(list, rule, ',')) {
    rule = trim(rule);
    if (!rule.empty()) out->rules.push_back(rule);
  }
  const std::size_t dash = text.find("--", close);
  if (dash != std::string::npos && !trim(text.substr(dash + 2)).empty()) {
    out->justified = true;
  }
  return true;
}

FileSummary build_file_summary(const std::string& path, const LexedFile& lexed,
                               const LintConfig& config) {
  FileSummary summary;
  summary.path = path;

  run_local_rules(path, lexed, config, &summary.local);
  collect_container_names(lexed, &summary.unordered_names,
                          &summary.sorted_names);

  // Include edges out of the opaque directive tokens.
  for (const Token& t : lexed.tokens) {
    if (t.kind != TokKind::kDirective) continue;
    const std::size_t inc = t.text.find("include");
    if (inc == std::string::npos) continue;
    const std::size_t open = t.text.find_first_of("\"<", inc);
    if (open == std::string::npos) continue;
    const char closer = t.text[open] == '"' ? '"' : '>';
    const std::size_t close = t.text.find(closer, open + 1);
    if (close == std::string::npos) continue;
    summary.includes.push_back(
        IncludeRef{t.text.substr(open + 1, close - open - 1), t.line});
  }

  for (const Comment& comment : lexed.comments) {
    Suppression sup;
    if (parse_suppression(comment, &sup)) summary.suppressions.push_back(sup);
  }
  return summary;
}

void run_pair_rules(const std::string& path, const LexedFile& lexed,
                    const LintConfig& config, const FileSummary* companion,
                    FileSummary* summary) {
  std::unordered_set<std::string> unordered(summary->unordered_names.begin(),
                                            summary->unordered_names.end());
  std::unordered_set<std::string> sorted(summary->sorted_names.begin(),
                                         summary->sorted_names.end());
  if (companion != nullptr) {
    unordered.insert(companion->unordered_names.begin(),
                     companion->unordered_names.end());
    sorted.insert(companion->sorted_names.begin(),
                  companion->sorted_names.end());
  }
  check_unordered_iteration(path, lexed, config, unordered, sorted,
                            &summary->local);
}

}  // namespace tbp_lint
