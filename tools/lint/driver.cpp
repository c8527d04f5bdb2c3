#include "lint/driver.hpp"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <map>
#include <ostream>
#include <set>
#include <sstream>

#include "obs/report.hpp"

namespace tbp_lint {
namespace {

namespace fs = std::filesystem;

[[nodiscard]] bool lintable_extension(const fs::path& p) {
  const std::string ext = p.extension().string();
  return ext == ".cpp" || ext == ".hpp" || ext == ".h" || ext == ".cc";
}

[[nodiscard]] std::string to_repo_relative(const fs::path& file,
                                           const fs::path& root) {
  std::string rel = file.lexically_relative(root).generic_string();
  return rel;
}

[[nodiscard]] bool excluded(const std::string& rel,
                            const std::vector<std::string>& excludes) {
  return std::any_of(
      excludes.begin(), excludes.end(),
      [&](const std::string& p) { return rel.rfind(p, 0) == 0; });
}

void apply_suppressions(const FileSummary& summary,
                        std::vector<Diagnostic>* diags, std::size_t* used,
                        std::vector<Diagnostic>* meta) {
  std::map<int, std::set<std::string>> allowed;
  for (const Suppression& sup : summary.suppressions) {
    if (sup.rules.empty() || !sup.justified) {
      meta->push_back(Diagnostic{
          summary.path, sup.line, "lint-suppression",
          rule_severity("lint-suppression"),
          sup.rules.empty()
              ? "suppression comment without allow(<rule, ...>)"
              : "suppression without a justification; write "
                "'allow(rule) -- why this exception is sound'"});
      if (sup.rules.empty()) continue;
    }
    for (const std::string& rule : sup.rules) {
      allowed[sup.line].insert(rule);
      if (sup.next_line) allowed[sup.line + 1].insert(rule);
    }
  }
  if (allowed.empty()) return;
  auto is_allowed = [&](const Diagnostic& d) {
    const auto it = allowed.find(d.line);
    if (it == allowed.end()) return false;
    return it->second.count(d.rule) != 0;
  };
  const auto split = std::stable_partition(
      diags->begin(), diags->end(),
      [&](const Diagnostic& d) { return !is_allowed(d); });
  *used += static_cast<std::size_t>(std::distance(split, diags->end()));
  diags->erase(split, diags->end());
}

void sort_diagnostics(std::vector<Diagnostic>* diags) {
  std::sort(diags->begin(), diags->end(),
            [](const Diagnostic& a, const Diagnostic& b) {
              if (a.file != b.file) return a.file < b.file;
              if (a.line != b.line) return a.line < b.line;
              if (a.rule != b.rule) return a.rule < b.rule;
              return a.message < b.message;
            });
}

/// Layering plus suppression application for one file's finished summary,
/// appended to `out`.  Shared by run_lint and lint_source so both see
/// identical semantics.
void finish_file(const FileSummary& summary, const LintConfig& config,
                 std::size_t* suppressions_used, std::vector<Diagnostic>* out) {
  std::vector<Diagnostic> diags = summary.local;
  run_layering(summary, config, &diags);
  std::vector<Diagnostic> meta;
  apply_suppressions(summary, &diags, suppressions_used, &meta);
  out->insert(out->end(), diags.begin(), diags.end());
  out->insert(out->end(), meta.begin(), meta.end());
}

}  // namespace

LintResult run_lint(const LintOptions& options) {
  LintResult result;
  const fs::path root(options.root.empty() ? "." : options.root);
  std::error_code ec;
  if (!fs::is_directory(root, ec)) {
    result.io_error = true;
    result.io_message = "root is not a directory: " + root.string();
    return result;
  }

  // Deterministic scan order: collect, normalize, sort.
  std::vector<std::string> files;
  for (const std::string& subdir : options.subdirs) {
    const fs::path dir = root / subdir;
    if (!fs::is_directory(dir, ec)) continue;
    for (auto it = fs::recursive_directory_iterator(dir, ec);
         !ec && it != fs::recursive_directory_iterator(); it.increment(ec)) {
      if (!it->is_regular_file(ec) || !lintable_extension(it->path())) continue;
      const std::string rel = to_repo_relative(it->path(), root);
      if (excluded(rel, options.excludes)) continue;
      files.push_back(rel);
    }
  }
  std::sort(files.begin(), files.end());
  files.erase(std::unique(files.begin(), files.end()), files.end());

  // Pass one: a summary per file.
  std::vector<LexedFile> lexed(files.size());
  std::vector<FileSummary> summaries(files.size());
  for (std::size_t i = 0; i < files.size(); ++i) {
    std::ifstream in(root / files[i], std::ios::binary);
    if (!in) {
      result.io_error = true;
      result.io_message = "cannot read " + files[i];
      return result;
    }
    std::ostringstream text;
    text << in.rdbuf();
    lexed[i] = lex(text.str());
    summaries[i] = build_file_summary(files[i], lexed[i], options.config);
  }
  result.files_scanned = files.size();

  // Pass two, once every summary exists so that a .cpp sees its paired
  // header's (cpp -> hpp): pair rules, layering, suppressions.
  for (std::size_t i = 0; i < files.size(); ++i) {
    const FileSummary* companion = nullptr;
    if (files[i].ends_with(".cpp")) {
      const std::string header =
          files[i].substr(0, files[i].size() - 4) + ".hpp";
      const auto it = std::lower_bound(files.begin(), files.end(), header);
      if (it != files.end() && *it == header) {
        companion = &summaries[static_cast<std::size_t>(it - files.begin())];
      }
    }
    run_pair_rules(files[i], lexed[i], options.config, companion,
                   &summaries[i]);
    finish_file(summaries[i], options.config, &result.suppressions_used,
                &result.diagnostics);
  }
  sort_diagnostics(&result.diagnostics);
  return result;
}

std::vector<Diagnostic> lint_source(const std::string& path,
                                    const std::string& source,
                                    const LintConfig& config) {
  const LexedFile lexed = lex(source);
  FileSummary summary = build_file_summary(path, lexed, config);
  run_pair_rules(path, lexed, config, nullptr, &summary);
  std::vector<Diagnostic> out;
  std::size_t used = 0;
  finish_file(summary, config, &used, &out);
  sort_diagnostics(&out);
  return out;
}

std::string format_diagnostic(const Diagnostic& diag, OutputFormat format) {
  const char* severity =
      diag.severity == Severity::kError ? "error" : "warning";
  std::ostringstream out;
  if (format == OutputFormat::kGithub) {
    // GitHub Actions annotation: surfaces inline on the PR diff.
    out << "::" << severity << " file=" << diag.file << ",line=" << diag.line
        << ",title=tbp-lint " << diag.rule << "::[" << diag.rule << "] "
        << diag.message;
  } else {
    out << diag.file << ':' << diag.line << ": " << severity << ": ["
        << diag.rule << "] " << diag.message;
  }
  return out.str();
}

std::string render_sarif(const LintResult& result) {
  namespace obs = tbp::obs;
  obs::JsonValue rules = obs::JsonValue::array();
  for (const RuleInfo& info : rule_registry()) {
    obs::JsonValue rule = obs::JsonValue::object();
    rule.set("id", info.id);
    obs::JsonValue text = obs::JsonValue::object();
    text.set("text", info.summary);
    rule.set("shortDescription", std::move(text));
    obs::JsonValue config = obs::JsonValue::object();
    config.set("level",
               info.severity == Severity::kError ? "error" : "warning");
    rule.set("defaultConfiguration", std::move(config));
    rules.items().push_back(std::move(rule));
  }
  obs::JsonValue driver = obs::JsonValue::object();
  driver.set("name", "tbp-lint");
  driver.set("rules", std::move(rules));
  obs::JsonValue tool = obs::JsonValue::object();
  tool.set("driver", std::move(driver));

  obs::JsonValue results = obs::JsonValue::array();
  for (const Diagnostic& diag : result.diagnostics) {
    obs::JsonValue entry = obs::JsonValue::object();
    entry.set("ruleId", diag.rule);
    entry.set("level",
              diag.severity == Severity::kError ? "error" : "warning");
    obs::JsonValue message = obs::JsonValue::object();
    message.set("text", diag.message);
    entry.set("message", std::move(message));
    obs::JsonValue artifact = obs::JsonValue::object();
    artifact.set("uri", diag.file);
    obs::JsonValue region = obs::JsonValue::object();
    region.set("startLine", diag.line);
    obs::JsonValue physical = obs::JsonValue::object();
    physical.set("artifactLocation", std::move(artifact));
    physical.set("region", std::move(region));
    obs::JsonValue location = obs::JsonValue::object();
    location.set("physicalLocation", std::move(physical));
    obs::JsonValue locations = obs::JsonValue::array();
    locations.items().push_back(std::move(location));
    entry.set("locations", std::move(locations));
    results.items().push_back(std::move(entry));
  }

  obs::JsonValue run = obs::JsonValue::object();
  run.set("tool", std::move(tool));
  run.set("results", std::move(results));
  obs::JsonValue runs = obs::JsonValue::array();
  runs.items().push_back(std::move(run));
  obs::JsonValue doc = obs::JsonValue::object();
  doc.set("$schema", "https://json.schemastore.org/sarif-2.1.0.json");
  doc.set("version", "2.1.0");
  doc.set("runs", std::move(runs));
  return obs::json_serialize_pretty(doc);
}

void print_report(const LintResult& result, OutputFormat format,
                  std::ostream& out, std::ostream& err) {
  if (result.io_error) {
    err << "tbp-lint: " << result.io_message << '\n';
    return;
  }
  std::size_t errors = 0;
  std::size_t warnings = 0;
  for (const Diagnostic& diag : result.diagnostics) {
    if (format != OutputFormat::kSarif) {
      out << format_diagnostic(diag, format) << '\n';
    }
    (diag.severity == Severity::kError ? errors : warnings) += 1;
  }
  if (format == OutputFormat::kSarif) out << render_sarif(result) << '\n';
  err << "tbp-lint: " << result.files_scanned << " files, " << errors
      << " error(s), " << warnings << " warning(s), "
      << result.suppressions_used << " suppression(s) honored\n";
}

int lint_exit_code(const LintResult& result, bool werror) {
  if (result.io_error) return 2;
  for (const Diagnostic& diag : result.diagnostics) {
    if (diag.severity == Severity::kError || werror) return 1;
  }
  return 0;
}

}  // namespace tbp_lint
