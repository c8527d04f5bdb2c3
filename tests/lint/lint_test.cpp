// tbp_lint fixture suite: every rule family is pinned to exact rule IDs
// and file:line positions on deliberately-broken fixture sources, the
// suppression syntax is exercised in both forms, exit codes are checked,
// and — the teeth — the real repository tree must lint clean.
#include <algorithm>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "lint/driver.hpp"
#include "lint/lexer.hpp"
#include "lint/rules.hpp"
#include "obs/report.hpp"

namespace {

using tbp_lint::Diagnostic;
using tbp_lint::LintConfig;
using tbp_lint::LintOptions;
using tbp_lint::LintResult;
using tbp_lint::OutputFormat;
using tbp_lint::Severity;

std::string fixture_path(const std::string& name) {
  return std::string(TBP_LINT_FIXTURE_DIR) + "/" + name;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.is_open()) << "cannot read " << path;
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

/// Fixture-directory policy: no allowlists, fixtures are order-sensitive
/// and in scope for the lock/layering passes with a tiny rank table.
LintConfig fixture_config() {
  LintConfig config;
  config.order_sensitive = {"tests/lint/fixtures/"};
  config.layer_ranks = {{"support", 0}, {"store", 5}};
  config.prof_include_allowlist = {
      "tests/lint/fixtures/prof_quarantine_clean.cpp"};
  return config;
}

/// Lints one fixture under the repo-relative path the rules expect.
std::vector<Diagnostic> lint_fixture(const std::string& name) {
  return tbp_lint::lint_source("tests/lint/fixtures/" + name,
                               read_file(fixture_path(name)),
                               fixture_config());
}

/// Lints a fixture under an arbitrary repo-relative path — the layering
/// pass keys off the directory a file claims to live in.
std::vector<Diagnostic> lint_fixture_as(const std::string& path,
                                        const std::string& name) {
  return tbp_lint::lint_source(path, read_file(fixture_path(name)),
                               fixture_config());
}

std::vector<std::pair<std::string, int>> rule_lines(
    const std::vector<Diagnostic>& diags) {
  std::vector<std::pair<std::string, int>> out;
  out.reserve(diags.size());
  for (const Diagnostic& d : diags) out.emplace_back(d.rule, d.line);
  return out;
}

TEST(LintFixtures, DeterminismRulesPinpointEachViolation) {
  const auto diags = lint_fixture("determinism_violation.cpp");
  const std::vector<std::pair<std::string, int>> expected = {
      {"determinism-rand", 11},  {"determinism-rand", 15},
      {"determinism-clock", 20}, {"determinism-time", 25},
      {"determinism-getenv", 29},
  };
  EXPECT_EQ(rule_lines(diags), expected);
  for (const Diagnostic& d : diags) {
    EXPECT_EQ(d.severity, Severity::kError);
    EXPECT_EQ(d.file, "tests/lint/fixtures/determinism_violation.cpp");
  }
}

TEST(LintFixtures, UnorderedIterationFlagsRawLoopsOnly) {
  const auto diags = lint_fixture("unordered_iter_violation.cpp");
  const std::vector<std::pair<std::string, int>> expected = {
      {"unordered-iter", 15},
      {"unordered-iter", 23},
  };
  EXPECT_EQ(rule_lines(diags), expected)
      << "the sorted-intermediate loop must stay exempt";
}

TEST(LintFixtures, HygieneFlagsMissingPragmaOnceAndNakedNew) {
  const auto diags = lint_fixture("hygiene_violation.hpp");
  const std::vector<std::pair<std::string, int>> expected = {
      {"pragma-once", 1},
      {"naked-new", 6},
      {"naked-new", 10},
  };
  ASSERT_EQ(rule_lines(diags), expected);
  EXPECT_EQ(diags[0].severity, Severity::kError);
  EXPECT_EQ(diags[1].severity, Severity::kWarning);
}

TEST(LintFixtures, CleanFileProducesNoFindings) {
  EXPECT_TRUE(lint_fixture("clean.cpp").empty());
}

TEST(LintFixtures, JustifiedSuppressionsSilenceBothForms) {
  EXPECT_TRUE(lint_fixture("suppressed.cpp").empty())
      << "own-line and same-line allow() with justification must both work";
}

TEST(LintFixtures, UnjustifiedSuppressionIsItselfAFinding) {
  const auto diags = lint_fixture("bad_suppression.cpp");
  const std::vector<std::pair<std::string, int>> expected = {
      {"lint-suppression", 7},
      {"lint-suppression", 10},
  };
  EXPECT_EQ(rule_lines(diags), expected)
      << "the allow is honored once, but the missing justification reports; "
         "a leftover shard(...) marker names no rule and reports too";
}

// --- guarded-by -----------------------------------------------------------

TEST(LintFixtures, GuardedByFlagsUnlockedAccessAndUnlockedHelperCall) {
  const auto diags = lint_fixture("guarded_by_violation.cpp");
  const std::vector<std::pair<std::string, int>> expected = {
      {"guarded-by", 23},  // value_ touched with no lock scope in sight
      {"guarded-by", 26},  // flush_locked() called outside any lock scope
  };
  ASSERT_EQ(rule_lines(diags), expected);
  EXPECT_NE(diags[0].message.find("value_"), std::string::npos);
  EXPECT_NE(diags[1].message.find("flush_locked"), std::string::npos);
  for (const Diagnostic& d : diags) {
    EXPECT_EQ(d.severity, Severity::kError);
    EXPECT_EQ(d.file, "tests/lint/fixtures/guarded_by_violation.cpp");
  }
}

TEST(LintFixtures, GuardedByJustifiedAllowSilences) {
  const auto diags = lint_fixture("guarded_by_suppressed.cpp");
  EXPECT_TRUE(diags.empty()) << tbp_lint::format_diagnostic(
      diags.front(), OutputFormat::kText);
}

TEST(LintFixtures, GuardedByLockScopesAndLockedHelpersAreClean) {
  const auto diags = lint_fixture("guarded_by_clean.cpp");
  EXPECT_TRUE(diags.empty()) << tbp_lint::format_diagnostic(
      diags.front(), OutputFormat::kText);
}

// --- layering -------------------------------------------------------------

TEST(LintFixtures, LayeringFlagsUpwardIncludeEdge) {
  const auto diags = lint_fixture_as("src/support/layering_violation.cpp",
                                     "layering_violation.cpp");
  const std::vector<std::pair<std::string, int>> expected = {
      {"layering", 3},  // support (rank 0) -> store (rank 5)
  };
  ASSERT_EQ(rule_lines(diags), expected);
  EXPECT_NE(diags[0].message.find("'support' -> 'store'"), std::string::npos);
  EXPECT_NE(diags[0].message.find("DESIGN.md"), std::string::npos);
  EXPECT_EQ(diags[0].severity, Severity::kError);
}

TEST(LintFixtures, LayeringJustifiedAllowSilences) {
  const auto diags = lint_fixture_as("src/support/layering_suppressed.cpp",
                                     "layering_suppressed.cpp");
  EXPECT_TRUE(diags.empty()) << tbp_lint::format_diagnostic(
      diags.front(), OutputFormat::kText);
}

TEST(LintFixtures, LayeringDownwardIncludeIsClean) {
  const auto diags = lint_fixture_as("src/store/layering_clean.cpp",
                                     "layering_clean.cpp");
  EXPECT_TRUE(diags.empty()) << tbp_lint::format_diagnostic(
      diags.front(), OutputFormat::kText);
}

// --- prof isolation / quarantine ------------------------------------------

TEST(LintFixtures, ProfQuarantineFlagsIncludeAndSinkSites) {
  const auto diags = lint_fixture("prof_quarantine_violation.cpp");
  const std::vector<std::pair<std::string, int>> expected = {
      {"prof-isolation", 4},    // prof/ include outside the allowlist
      {"prof-quarantine", 16},  // timer.seconds() -> "predicted_ipc"
      {"prof-quarantine", 17},  // timer.busy_seconds() -> "cycles"
      {"prof-quarantine", 18},  // timer.seconds() -> "imbalance_ratio"
  };
  ASSERT_EQ(rule_lines(diags), expected);
  EXPECT_NE(diags[0].message.find("prof/prof.hpp"), std::string::npos);
  EXPECT_NE(diags[1].message.find("predicted_ipc"), std::string::npos);
  EXPECT_NE(diags[1].message.find("seconds()"), std::string::npos);
  EXPECT_NE(diags[3].message.find("imbalance_ratio"), std::string::npos);
  for (const Diagnostic& d : diags) {
    EXPECT_EQ(d.severity, Severity::kError);
    EXPECT_EQ(d.file, "tests/lint/fixtures/prof_quarantine_violation.cpp");
  }
}

TEST(LintFixtures, ProfQuarantineCompliantFieldsAndAllowlistAreClean) {
  const auto diags = lint_fixture("prof_quarantine_clean.cpp");
  EXPECT_TRUE(diags.empty()) << tbp_lint::format_diagnostic(
      diags.front(), OutputFormat::kText);
}

TEST(LintFixtures, ProfQuarantineJustifiedAllowsSilenceBothForms) {
  const auto diags = lint_fixture("prof_quarantine_suppressed.cpp");
  EXPECT_TRUE(diags.empty()) << tbp_lint::format_diagnostic(
      diags.front(), OutputFormat::kText);
}

TEST(LintFixtures, ProfIsolationSkipsFilesInsideSrcProf) {
  const auto diags = lint_fixture_as("src/prof/prof_quarantine_clean.cpp",
                                     "prof_quarantine_clean.cpp");
  EXPECT_TRUE(diags.empty()) << tbp_lint::format_diagnostic(
      diags.front(), OutputFormat::kText);
}

// --- lexer regressions ----------------------------------------------------

TEST(LintFixtures, DigitSeparatorsDoNotDesyncTheLexer) {
  const auto diags = lint_fixture("lexer_digit_separator.cpp");
  const std::vector<std::pair<std::string, int>> expected = {
      {"determinism-rand", 10},
  };
  EXPECT_EQ(rule_lines(diags), expected)
      << "1'000'000 must lex as one number, not open a char literal";
}

TEST(LintFixtures, RawStringContentsAreDataAndNewlinesStillCount) {
  const auto diags = lint_fixture("lexer_raw_string.cpp");
  const std::vector<std::pair<std::string, int>> expected = {
      {"determinism-rand", 14},
  };
  EXPECT_EQ(rule_lines(diags), expected)
      << "rand()/getenv() inside R\"doc(...)doc\" must stay inert";
}

TEST(LintLexer, DigitSeparatorIsOneNumberToken) {
  const tbp_lint::LexedFile lexed = tbp_lint::lex("auto x = 1'000'000;");
  bool found = false;
  for (const tbp_lint::Token& tok : lexed.tokens) {
    if (tok.kind == tbp_lint::TokKind::kNumber) {
      EXPECT_EQ(tok.text, "1'000'000");
      found = true;
    }
  }
  EXPECT_TRUE(found);
}

TEST(LintLexer, RawStringIsConsumedAndLinesAreCounted) {
  const tbp_lint::LexedFile lexed =
      tbp_lint::lex("auto s = R\"doc(rand() \" ) )doc\";\nint after = 1;");
  for (const tbp_lint::Token& tok : lexed.tokens) {
    EXPECT_NE(tok.text, "rand") << "raw-string interior leaked into tokens";
    if (tok.text == "after") {
      EXPECT_EQ(tok.line, 2);
    }
  }
  const tbp_lint::LexedFile multi = tbp_lint::lex("R\"(a\nb\nc)\" tail");
  ASSERT_FALSE(multi.tokens.empty());
  EXPECT_EQ(multi.tokens.back().text, "tail");
  EXPECT_EQ(multi.tokens.back().line, 3);
}

TEST(LintLexer, StringLiteralsCarryInteriorTextAsStringTokens) {
  const tbp_lint::LexedFile lexed =
      tbp_lint::lex("doc.set(\"wall_seconds\", rand_free);");
  bool found = false;
  for (const tbp_lint::Token& tok : lexed.tokens) {
    if (tok.kind == tbp_lint::TokKind::kString) {
      EXPECT_EQ(tok.text, "wall_seconds");
      found = true;
    }
  }
  EXPECT_TRUE(found) << "string literal must surface as a kString token";
}

TEST(LintLexer, UnterminatedRawStringConsumesToEndWithoutLooping) {
  const tbp_lint::LexedFile lexed =
      tbp_lint::lex("auto s = R\"doc(never closes\nrand()");
  for (const tbp_lint::Token& tok : lexed.tokens) {
    EXPECT_NE(tok.text, "rand");
  }
}

TEST(LintDriver, FixtureDirectoryScanFailsWithExitCodeOne) {
  LintOptions options;
  options.root = TBP_LINT_FIXTURE_DIR;
  options.subdirs = {"."};
  options.excludes = {};
  options.config = fixture_config();
  // Under root=fixtures the repo-relative paths lose their prefix; the
  // empty prefix makes every scanned file order-sensitive.
  options.config.order_sensitive = {""};
  const LintResult result = tbp_lint::run_lint(options);
  EXPECT_FALSE(result.io_error);
  EXPECT_GE(result.files_scanned, 7u);
  EXPECT_FALSE(result.diagnostics.empty());
  EXPECT_EQ(tbp_lint::lint_exit_code(result, /*werror=*/false), 1);
  EXPECT_EQ(tbp_lint::lint_exit_code(result, /*werror=*/true), 1);
}

TEST(LintDriver, MissingRootYieldsExitCodeTwo) {
  LintOptions options;
  options.root = fixture_path("does-not-exist");
  const LintResult result = tbp_lint::run_lint(options);
  EXPECT_TRUE(result.io_error);
  EXPECT_EQ(tbp_lint::lint_exit_code(result, /*werror=*/false), 2);
}

TEST(LintDriver, CleanResultYieldsExitCodeZero) {
  LintResult clean;
  EXPECT_EQ(tbp_lint::lint_exit_code(clean, /*werror=*/false), 0);
  EXPECT_EQ(tbp_lint::lint_exit_code(clean, /*werror=*/true), 0);
  LintResult warning_only;
  warning_only.diagnostics.push_back(Diagnostic{
      "a.cpp", 1, "naked-new", Severity::kWarning, "m"});
  EXPECT_EQ(tbp_lint::lint_exit_code(warning_only, /*werror=*/false), 0);
  EXPECT_EQ(tbp_lint::lint_exit_code(warning_only, /*werror=*/true), 1);
}

TEST(LintOutput, TextAndGithubFormats) {
  const Diagnostic diag{"src/a.cpp", 42, "determinism-rand",
                        Severity::kError, "no rand"};
  EXPECT_EQ(tbp_lint::format_diagnostic(diag, OutputFormat::kText),
            "src/a.cpp:42: error: [determinism-rand] no rand");
  EXPECT_EQ(tbp_lint::format_diagnostic(diag, OutputFormat::kGithub),
            "::error file=src/a.cpp,line=42,title=tbp-lint "
            "determinism-rand::[determinism-rand] no rand");
}

TEST(LintOutput, RuleRegistryHasUniqueIdsCoveringEmittedRules) {
  std::set<std::string> ids;
  for (const tbp_lint::RuleInfo& info : tbp_lint::rule_registry()) {
    EXPECT_TRUE(ids.insert(info.id).second) << "duplicate rule " << info.id;
  }
  for (const char* emitted :
       {"determinism-rand", "determinism-clock", "determinism-time",
        "determinism-getenv", "unordered-iter", "pragma-once", "naked-new",
        "lint-suppression", "guarded-by", "layering", "prof-isolation",
        "prof-quarantine"}) {
    EXPECT_EQ(ids.count(emitted), 1u) << emitted;
  }
}

// The SARIF document must parse as strict JSON and carry the fields the
// 2.1.0 schema marks required on the path we emit: version, runs, tool
// driver with the rule registry, and per-result rule/level/location.
TEST(LintOutput, SarifValidatesAgainstMinimalSchemaShape) {
  LintResult result;
  result.diagnostics.push_back(Diagnostic{
      "src/a.cpp", 42, "determinism-rand", Severity::kError, "no rand"});
  result.diagnostics.push_back(Diagnostic{
      "src/b.hpp", 7, "naked-new", Severity::kWarning, "prefer make_unique"});
  const std::string doc = tbp_lint::render_sarif(result);

  const auto parsed = tbp::obs::json_parse(doc);
  ASSERT_TRUE(parsed.ok()) << parsed.status().message();
  const tbp::obs::JsonValue& root = parsed.value();

  ASSERT_NE(root.find("$schema"), nullptr);
  EXPECT_EQ(root.find("$schema")->as_string(),
            "https://json.schemastore.org/sarif-2.1.0.json");
  ASSERT_NE(root.find("version"), nullptr);
  EXPECT_EQ(root.find("version")->as_string(), "2.1.0");

  const tbp::obs::JsonValue* runs = root.find("runs");
  ASSERT_NE(runs, nullptr);
  ASSERT_TRUE(runs->is_array());
  ASSERT_EQ(runs->items().size(), 1u);
  const tbp::obs::JsonValue& run = runs->items()[0];

  const tbp::obs::JsonValue* tool = run.find("tool");
  ASSERT_NE(tool, nullptr);
  const tbp::obs::JsonValue* driver = tool->find("driver");
  ASSERT_NE(driver, nullptr);
  ASSERT_NE(driver->find("name"), nullptr);
  EXPECT_EQ(driver->find("name")->as_string(), "tbp-lint");
  const tbp::obs::JsonValue* rules = driver->find("rules");
  ASSERT_NE(rules, nullptr);
  EXPECT_EQ(rules->items().size(), tbp_lint::rule_registry().size());
  for (const tbp::obs::JsonValue& rule : rules->items()) {
    ASSERT_NE(rule.find("id"), nullptr);
    ASSERT_NE(rule.find("shortDescription"), nullptr);
    ASSERT_NE(rule.find("shortDescription")->find("text"), nullptr);
  }

  const tbp::obs::JsonValue* results = run.find("results");
  ASSERT_NE(results, nullptr);
  ASSERT_EQ(results->items().size(), 2u);
  const tbp::obs::JsonValue& first = results->items()[0];
  EXPECT_EQ(first.find("ruleId")->as_string(), "determinism-rand");
  EXPECT_EQ(first.find("level")->as_string(), "error");
  EXPECT_EQ(first.find("message")->find("text")->as_string(), "no rand");
  const tbp::obs::JsonValue* loc =
      first.find("locations")->items()[0].find("physicalLocation");
  ASSERT_NE(loc, nullptr);
  EXPECT_EQ(loc->find("artifactLocation")->find("uri")->as_string(),
            "src/a.cpp");
  EXPECT_EQ(loc->find("region")->find("startLine")->as_u64(), 42u);
  EXPECT_EQ(results->items()[1].find("level")->as_string(), "warning");
}

// The repo policy names only live code: every clock-allowlisted file does
// read a clock (so its exemption exempts something), and every
// order-sensitive entry exists in the tree.
TEST(LintConfig, DefaultConfigNamesOnlyLiveCode) {
  const LintConfig config = tbp_lint::default_config();
  LintConfig no_clock_allowlist = config;
  no_clock_allowlist.clock_allowlist.clear();
  for (const std::string& path : config.clock_allowlist) {
    const auto diags = tbp_lint::lint_source(
        path, read_file(std::string(TBP_LINT_SOURCE_DIR) + "/" + path),
        no_clock_allowlist);
    const bool reads_clock =
        std::any_of(diags.begin(), diags.end(), [](const Diagnostic& d) {
          return d.rule == "determinism-clock" || d.rule == "determinism-time";
        });
    EXPECT_TRUE(reads_clock) << path << " is allowlisted but reads no clock";
  }
  for (const std::string& entry : config.order_sensitive) {
    EXPECT_TRUE(std::filesystem::exists(
        std::filesystem::path(TBP_LINT_SOURCE_DIR) / entry))
        << "order_sensitive names a missing path: " << entry;
  }
}

// The acceptance gate: the real tree has zero unsuppressed findings under
// the repo policy.  A regression anywhere in src/tools/bench/tests turns
// this test (and the tbp_lint_tree ctest entry) red.
TEST(LintRepo, WholeTreeIsClean) {
  LintOptions options;
  options.root = TBP_LINT_SOURCE_DIR;
  const LintResult result = tbp_lint::run_lint(options);
  ASSERT_FALSE(result.io_error) << result.io_message;
  EXPECT_GT(result.files_scanned, 100u);
  for (const Diagnostic& d : result.diagnostics) {
    ADD_FAILURE() << tbp_lint::format_diagnostic(d, OutputFormat::kText);
  }
  EXPECT_EQ(tbp_lint::lint_exit_code(result, /*werror=*/true), 0);
}

}  // namespace
