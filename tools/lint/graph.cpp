#include "lint/graph.hpp"

namespace tbp_lint {
namespace {

void emit(std::vector<Diagnostic>* out, const std::string& path, int line,
          std::string rule, std::string message) {
  out->push_back(Diagnostic{path, line, rule, rule_severity(rule),
                            std::move(message)});
}

[[nodiscard]] std::vector<std::string> split_path(const std::string& path) {
  std::vector<std::string> parts;
  std::size_t begin = 0;
  while (begin <= path.size()) {
    const std::size_t slash = path.find('/', begin);
    if (slash == std::string::npos) {
      parts.push_back(path.substr(begin));
      break;
    }
    parts.push_back(path.substr(begin, slash - begin));
    begin = slash + 1;
  }
  return parts;
}

[[nodiscard]] int rank_of(const std::string& module, const LintConfig& config) {
  for (const auto& [name, rank] : config.layer_ranks) {
    if (name == module) return rank;
  }
  return -1;
}

}  // namespace

std::string module_of_file(const std::string& path, const LintConfig& config) {
  const std::vector<std::string> parts = split_path(path);
  if (parts.size() >= 2 && parts[0] == "src") return parts[1];
  // A ranked tool directory ("tools/lint") is its own module; tests and
  // bench stay whole-tree modules whatever they exercise.
  if (parts.size() >= 2 && parts[0] == "tools" &&
      rank_of(parts[1], config) >= 0) {
    return parts[1];
  }
  return parts.empty() ? std::string() : parts[0];
}

void run_layering(const FileSummary& summary, const LintConfig& config,
                  std::vector<Diagnostic>* out) {
  if (config.layer_ranks.empty()) return;
  const std::string source = module_of_file(summary.path, config);
  const int source_rank = rank_of(source, config);
  if (source_rank < 0) return;  // file outside the ranked tree
  for (const IncludeRef& inc : summary.includes) {
    const std::size_t slash = inc.target.find('/');
    if (slash == std::string::npos || slash == 0) continue;  // system/bare
    const std::string target = inc.target.substr(0, slash);
    if (target == source) continue;
    const int target_rank = rank_of(target, config);
    if (target_rank < 0) continue;  // not one of ours
    if (target_rank < source_rank) continue;
    emit(out, summary.path, inc.line, "layering",
         "include edge '" + source + "' -> '" + target +
             "' violates the module DAG: rank " + std::to_string(target_rank) +
             " ('" + target + "') must be strictly below rank " +
             std::to_string(source_rank) + " ('" + source +
             "'); see DESIGN.md \"Static invariants\"");
  }
}

void run_prof_isolation(const FileSummary& summary, const LintConfig& config,
                        std::vector<Diagnostic>* out) {
  if (summary.path.rfind("src/prof/", 0) == 0 ||
      path_matches(summary.path, config.prof_include_allowlist)) {
    return;
  }
  for (const IncludeRef& inc : summary.includes) {
    if (inc.target.rfind("prof/", 0) != 0) continue;
    emit(out, summary.path, inc.line, "prof-isolation",
         "include of '" + inc.target +
             "' outside the profiling allowlist; the wall-clock "
             "self-profiling layer stays out of deterministic modules "
             "(DESIGN.md \"Self-profiling\")");
  }
}

}  // namespace tbp_lint
