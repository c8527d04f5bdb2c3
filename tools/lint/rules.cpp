#include "lint/rules.hpp"

#include <algorithm>
#include <array>
#include <string_view>
#include <unordered_set>

namespace tbp_lint {
namespace {

// ---------------------------------------------------------------------------
// Rule tables

constexpr std::array<std::string_view, 8> kBannedRandomIdents = {
    "rand",  "srand",   "rand_r",  "drand48",
    "lrand48", "mrand48", "random_device", "random_shuffle",
};

constexpr std::array<std::string_view, 5> kWallClockIdents = {
    "steady_clock", "system_clock", "high_resolution_clock", "utc_clock",
    "file_clock",
};

constexpr std::array<std::string_view, 9> kWallClockCalls = {
    "time",       "clock",    "gettimeofday", "clock_gettime", "localtime",
    "gmtime",     "ctime",    "timespec_get", "ftime",
};

constexpr std::array<std::string_view, 5> kEnvIdents = {
    "getenv", "secure_getenv", "setenv", "putenv", "unsetenv",
};

constexpr std::array<std::string_view, 4> kUnorderedTypes = {
    "unordered_map", "unordered_set", "unordered_multimap",
    "unordered_multiset",
};

constexpr std::array<std::string_view, 4> kSortedTypes = {
    "map", "set", "multimap", "multiset",
};

template <std::size_t N>
[[nodiscard]] bool in_table(const std::array<std::string_view, N>& table,
                            const std::string& text) noexcept {
  return std::find(table.begin(), table.end(), text) != table.end();
}

// ---------------------------------------------------------------------------
// Token-stream helpers

using Tokens = std::vector<Token>;

[[nodiscard]] bool is_ident(const Token& t, std::string_view text) noexcept {
  return t.kind == TokKind::kIdentifier && t.text == text;
}

[[nodiscard]] bool is_punct(const Token& t, std::string_view text) noexcept {
  return t.kind == TokKind::kPunct && t.text == text;
}

[[nodiscard]] const Token* at(const Tokens& toks, std::size_t i) noexcept {
  return i < toks.size() ? &toks[i] : nullptr;
}

/// Index one past the matching closer, or toks.size() on imbalance.
[[nodiscard]] std::size_t skip_balanced(const Tokens& toks, std::size_t open,
                                        std::string_view opener,
                                        std::string_view closer) {
  std::size_t depth = 0;
  for (std::size_t i = open; i < toks.size(); ++i) {
    if (is_punct(toks[i], opener)) ++depth;
    if (is_punct(toks[i], closer) && --depth == 0) return i + 1;
  }
  return toks.size();
}

[[nodiscard]] bool member_access_before(const Tokens& toks, std::size_t i) {
  return i > 0 && (is_punct(toks[i - 1], ".") || is_punct(toks[i - 1], "->"));
}

void emit(std::vector<Diagnostic>* out, const std::string& path, int line,
          std::string rule, std::string message) {
  out->push_back(Diagnostic{path, line, rule, rule_severity(rule),
                            std::move(message)});
}

// ---------------------------------------------------------------------------
// determinism-* rules

void check_determinism(const std::string& path, const LexedFile& lexed,
                       const LintConfig& config,
                       std::vector<Diagnostic>* out) {
  const Tokens& toks = lexed.tokens;
  const bool clock_ok = path_matches(path, config.clock_allowlist);
  const bool env_ok = path_matches(path, config.getenv_allowlist);

  for (std::size_t i = 0; i < toks.size(); ++i) {
    const Token& t = toks[i];
    if (t.kind != TokKind::kIdentifier) continue;
    if (member_access_before(toks, i)) continue;

    if (in_table(kBannedRandomIdents, t.text)) {
      emit(out, path, t.line, "determinism-rand",
           "'" + t.text +
               "' is nondeterministic; use the seeded tbp::stats RNG");
      continue;
    }
    if (!clock_ok && in_table(kWallClockIdents, t.text)) {
      emit(out, path, t.line, "determinism-clock",
           "wall-clock type '" + t.text +
               "' outside the timing allowlist; simulated results must "
               "depend only on simulated cycles");
      continue;
    }
    if (!clock_ok && in_table(kWallClockCalls, t.text)) {
      const Token* next = at(toks, i + 1);
      if (next != nullptr && is_punct(*next, "(")) {
        emit(out, path, t.line, "determinism-time",
             "call to wall-clock function '" + t.text +
                 "' outside the timing allowlist");
        continue;
      }
    }
    if (!env_ok && in_table(kEnvIdents, t.text)) {
      emit(out, path, t.line, "determinism-getenv",
           "environment access '" + t.text +
               "' makes results depend on ambient state; thread "
               "configuration through options structs instead");
    }
  }
}

/// [begin, end) token span of the statement or block following index
/// `after` (the loop body).
[[nodiscard]] std::pair<std::size_t, std::size_t> body_span(const Tokens& toks,
                                                            std::size_t after) {
  const Token* first = at(toks, after);
  if (first == nullptr) return {after, after};
  if (is_punct(*first, "{")) {
    return {after + 1, skip_balanced(toks, after, "{", "}")};
  }
  std::size_t j = after;
  while (j < toks.size() && !is_punct(toks[j], ";")) ++j;
  return {after, j};
}

// ---------------------------------------------------------------------------
// prof-isolation / prof-quarantine rules

/// The self-profiling quarantine (DESIGN.md "Self-profiling").  Two checks:
///
///  - prof-isolation: `#include "prof/..."` is legal only inside src/prof
///    and the configured allowlist (the instrumented layers and the tools
///    that render sidecars).  A module that cannot name a ProfSession
///    cannot route a wall-clock reading into simulated results.
///
///  - prof-quarantine: at a sealed-artifact emission site
///    `.set("key", <args>)`, a wall-clock getter inside the args — a
///    member call named exactly `seconds`, or any call whose name ends in
///    `_seconds` — requires the key to also end in `_seconds`.  That suffix
///    marks a wall-clock reporting field, which no manifest carries, so
///    timing can never flow into a field the manifests keep byte-identical.
void check_prof_quarantine(const std::string& path, const LexedFile& lexed,
                           const LintConfig& config,
                           std::vector<Diagnostic>* out) {
  const Tokens& toks = lexed.tokens;

  const bool include_ok = path.rfind("src/prof/", 0) == 0 ||
                          path_matches(path, config.prof_include_allowlist);
  if (!include_ok) {
    for (const Token& t : toks) {
      if (t.kind != TokKind::kDirective) continue;
      const std::size_t inc = t.text.find("include");
      if (inc == std::string::npos) continue;
      const std::size_t open = t.text.find_first_of("\"<", inc);
      if (open == std::string::npos) continue;
      const char closer = t.text[open] == '"' ? '"' : '>';
      const std::size_t close = t.text.find(closer, open + 1);
      if (close == std::string::npos) continue;
      const std::string target = t.text.substr(open + 1, close - open - 1);
      if (target.rfind("prof/", 0) != 0) continue;
      emit(out, path, t.line, "prof-isolation",
           "include of '" + target +
               "' outside the profiling allowlist; the wall-clock "
               "self-profiling layer stays out of deterministic modules "
               "(DESIGN.md \"Self-profiling\")");
    }
  }

  const auto is_wallclock_name = [](const std::string& name) {
    return name.ends_with("_seconds");
  };
  for (std::size_t i = 0; i < toks.size(); ++i) {
    if (!is_ident(toks[i], "set") || !member_access_before(toks, i)) continue;
    const Token* open = at(toks, i + 1);
    if (open == nullptr || !is_punct(*open, "(")) continue;
    const Token* key = at(toks, i + 2);
    if (key == nullptr || key->kind != TokKind::kString) continue;
    if (is_wallclock_name(key->text)) continue;  // declared reporting field
    const std::size_t close = skip_balanced(toks, i + 1, "(", ")");
    for (std::size_t j = i + 3; j + 1 < close; ++j) {
      const Token& t = toks[j];
      if (t.kind != TokKind::kIdentifier) continue;
      const Token* call = at(toks, j + 1);
      if (call == nullptr || !is_punct(*call, "(")) continue;
      const bool member_seconds =
          t.text == "seconds" && member_access_before(toks, j);
      if (!member_seconds && !is_wallclock_name(t.text)) continue;
      emit(out, path, t.line, "prof-quarantine",
           "wall-clock value '" + t.text + "()' flows into artifact field '" +
               key->text +
               "'; prof/walltime readings may only reach *_seconds "
               "reporting fields (DESIGN.md \"Self-profiling\")");
    }
  }
}

// ---------------------------------------------------------------------------
// hygiene rules

void check_pragma_once(const std::string& path, const LexedFile& lexed,
                       std::vector<Diagnostic>* out) {
  if (!is_header(path)) return;
  for (const Token& t : lexed.tokens) {
    if (t.kind != TokKind::kDirective) continue;
    if (t.text.find("pragma") != std::string::npos &&
        t.text.find("once") != std::string::npos) {
      return;
    }
  }
  emit(out, path, 1, "pragma-once", "header is missing '#pragma once'");
}

void check_naked_new(const std::string& path, const LexedFile& lexed,
                     const LintConfig& config, std::vector<Diagnostic>* out) {
  if (path_matches(path, config.raw_memory_allowlist)) return;
  const Tokens& toks = lexed.tokens;
  for (std::size_t i = 0; i < toks.size(); ++i) {
    const Token& t = toks[i];
    if (t.kind != TokKind::kIdentifier ||
        (t.text != "new" && t.text != "delete")) {
      continue;
    }
    if (t.text == "delete" && i > 0 && is_punct(toks[i - 1], "="))
      continue;  // deleted functions
    if (i > 0 && is_ident(toks[i - 1], "operator")) continue;
    emit(out, path, t.line, "naked-new",
         "naked '" + t.text +
             "' outside the low-level allowlist; prefer containers or "
             "unique_ptr so ownership is structural");
  }
}

}  // namespace

// ---------------------------------------------------------------------------

const std::vector<RuleInfo>& rule_registry() {
  static const std::vector<RuleInfo> kRules = {
      {"determinism-rand", Severity::kError,
       "nondeterministic RNG primitives (rand, random_device, ...)"},
      {"determinism-clock", Severity::kError,
       "wall-clock types outside the timing allowlist"},
      {"determinism-time", Severity::kError,
       "wall-clock function calls outside the timing allowlist"},
      {"determinism-getenv", Severity::kError,
       "environment access outside the allowlist"},
      {"unordered-iter", Severity::kError,
       "unordered-container iteration in order-sensitive files"},
      {"guarded-by", Severity::kError,
       "TBP_GUARDED_BY field access outside a scope holding its mutex"},
      {"layering", Severity::kError,
       "include edge that violates the module DAG"},
      {"prof-isolation", Severity::kError,
       "prof/ include outside the profiling allowlist"},
      {"prof-quarantine", Severity::kError,
       "wall-clock value flowing into a non-*_seconds artifact field"},
      {"pragma-once", Severity::kError, "header missing #pragma once"},
      {"naked-new", Severity::kWarning,
       "naked new/delete outside the low-level allowlist"},
      {"lint-suppression", Severity::kError,
       "malformed suppression (allow() without a justification)"},
  };
  return kRules;
}

Severity rule_severity(const std::string& rule) {
  for (const RuleInfo& info : rule_registry()) {
    if (rule == info.id) return info.severity;
  }
  return Severity::kError;
}

LintConfig default_config() {
  LintConfig config;
  // Wall-clock reads are the *measurement* half of the harness, and all of
  // them funnel through timing::monotonic_seconds (support/walltime) so the
  // allowlist is one entry wide: the helper's own translation unit.  The
  // experiment timer and every bench (including the BENCH_PERF.json
  // emitter) call the helper instead of <chrono> directly; simulated
  // results must never flow from it, and the simulator's watchdog counts
  // simulated cycles, not wall time.
  config.clock_allowlist = {
      "src/support/walltime.cpp",
  };
  config.getenv_allowlist = {};
  config.raw_memory_allowlist = {};
  // Translation units whose iteration order reaches serialized bytes:
  // metric/trace export, artifact serialization, and the region sampler
  // (its dominant-region vote feeds predicted IPC, which is an artifact).
  config.order_sensitive = {
      "src/obs/",
      "src/harness/cache.cpp",
      "src/harness/manifest.cpp",
      "src/core/region_sampler.cpp",
      "src/store/",    // index journal + eviction order reach disk bytes
      "src/service/",  // batching order reaches response/store writes
      "tools/report/",  // manifest rendering + compare gate output
  };
  // Who may see the self-profiling layer: the instrumented subsystems
  // (store, service), the tools that emit or render sidecars, and tests.
  // Everything else — sim, core, harness, the deterministic heart of the
  // pipeline — cannot even include it.
  config.prof_include_allowlist = {
      "src/store/", "src/service/", "tools/", "tests/",
  };
  // The measured module DAG (DESIGN.md "Static invariants"): an include is
  // legal within one module or from a higher rank to a strictly lower one.
  config.layer_ranks = {
      {"support", 0}, {"stats", 1},    {"trace", 2},     {"obs", 2},
      {"prof", 3},    {"markov", 4},   {"cluster", 4},   {"workloads", 4},
      {"profile", 4}, {"sim", 4},      {"analytical", 5}, {"baselines", 5},
      {"core", 5},    {"store", 6},    {"harness", 7},   {"fuzz", 8},
      {"service", 8}, {"lint", 9},     {"tools", 10},    {"bench", 10},
      {"tests", 11},
  };
  return config;
}

bool path_matches(const std::string& path,
                  const std::vector<std::string>& prefixes) {
  return std::any_of(prefixes.begin(), prefixes.end(),
                     [&](const std::string& p) { return path.rfind(p, 0) == 0; });
}

bool is_header(const std::string& path) {
  return path.ends_with(".hpp") || path.ends_with(".h");
}

void run_local_rules(const std::string& path, const LexedFile& lexed,
                     const LintConfig& config, std::vector<Diagnostic>* out) {
  check_determinism(path, lexed, config, out);
  check_prof_quarantine(path, lexed, config, out);
  check_pragma_once(path, lexed, out);
  check_naked_new(path, lexed, config, out);
}

void collect_container_names(const LexedFile& lexed,
                             std::vector<std::string>* unordered_names,
                             std::vector<std::string>* sorted_names) {
  const Tokens& toks = lexed.tokens;
  for (std::size_t i = 0; i < toks.size(); ++i) {
    const Token& t = toks[i];
    if (t.kind != TokKind::kIdentifier) continue;
    const bool is_unordered = in_table(kUnorderedTypes, t.text);
    const bool is_sorted =
        in_table(kSortedTypes, t.text) && i >= 2 &&
        is_punct(toks[i - 1], "::") && is_ident(toks[i - 2], "std");
    if (!is_unordered && !is_sorted) continue;
    std::size_t j = i + 1;
    const Token* open = at(toks, j);
    if (open == nullptr || !is_punct(*open, "<")) continue;
    j = skip_balanced(toks, j, "<", ">");
    while (j < toks.size() &&
           (is_punct(toks[j], "&") || is_punct(toks[j], "*") ||
            is_ident(toks[j], "const"))) {
      ++j;
    }
    const Token* name = at(toks, j);
    if (name == nullptr || name->kind != TokKind::kIdentifier) continue;
    (is_unordered ? unordered_names : sorted_names)->push_back(name->text);
  }
}

void check_unordered_iteration(
    const std::string& path, const LexedFile& lexed, const LintConfig& config,
    const std::unordered_set<std::string>& unordered_names,
    const std::unordered_set<std::string>& sorted_names,
    std::vector<Diagnostic>* out) {
  if (!path_matches(path, config.order_sensitive)) return;
  if (unordered_names.empty()) return;
  const Tokens& toks = lexed.tokens;

  for (std::size_t i = 0; i < toks.size(); ++i) {
    // Explicit iterator traversal: name.begin() / name.cbegin().
    if (toks[i].kind == TokKind::kIdentifier &&
        unordered_names.count(toks[i].text) != 0 &&
        !member_access_before(toks, i)) {
      const Token* dot = at(toks, i + 1);
      const Token* fn = at(toks, i + 2);
      if (dot != nullptr && fn != nullptr &&
          (is_punct(*dot, ".") || is_punct(*dot, "->")) &&
          (fn->text == "begin" || fn->text == "cbegin")) {
        emit(out, path, toks[i].line, "unordered-iter",
             "iterator traversal of unordered container '" + toks[i].text +
                 "' in an order-sensitive file; iteration order here can "
                 "reach exported bytes");
      }
    }

    // Range-for whose range expression names an unordered container.
    if (!is_ident(toks[i], "for")) continue;
    const Token* open = at(toks, i + 1);
    if (open == nullptr || !is_punct(*open, "(")) continue;
    const std::size_t close = skip_balanced(toks, i + 1, "(", ")");
    // Locate the range-for ':' at paren depth 1; a classic for has ';'
    // first and is skipped.
    std::size_t colon = 0;
    std::size_t depth = 0;
    for (std::size_t j = i + 1; j < close; ++j) {
      if (is_punct(toks[j], "(")) ++depth;
      if (is_punct(toks[j], ")")) --depth;
      if (depth == 1 && is_punct(toks[j], ";")) break;
      if (depth == 1 && is_punct(toks[j], ":")) {
        colon = j;
        break;
      }
    }
    if (colon == 0) continue;
    std::string ranged;
    for (std::size_t j = colon + 1; j + 1 < close; ++j) {
      if (toks[j].kind == TokKind::kIdentifier &&
          unordered_names.count(toks[j].text) != 0) {
        ranged = toks[j].text;
        break;
      }
    }
    if (ranged.empty()) continue;

    // Escape hatch: a loop that provably feeds a sorted intermediate (its
    // body touches a std::map/std::set declared in this file, or sorts) is
    // order-safe — accumulation into a sorted container commutes.
    const auto [body_begin, body_end] = body_span(toks, close);
    bool feeds_sorted = false;
    for (std::size_t j = body_begin; j < body_end; ++j) {
      if (toks[j].kind == TokKind::kIdentifier &&
          (sorted_names.count(toks[j].text) != 0 || toks[j].text == "sort")) {
        feeds_sorted = true;
        break;
      }
    }
    if (feeds_sorted) continue;
    emit(out, path, toks[i].line, "unordered-iter",
         "range-for over unordered container '" + ranged +
             "' in an order-sensitive file does not feed a sorted "
             "intermediate; iteration order can reach exported bytes");
  }
}

}  // namespace tbp_lint
