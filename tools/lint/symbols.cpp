#include "lint/symbols.hpp"

#include <algorithm>
#include <map>
#include <sstream>
#include <unordered_map>
#include <unordered_set>

namespace tbp_lint {
namespace {

using Tokens = std::vector<Token>;

[[nodiscard]] bool is_punct(const Token& t, std::string_view text) noexcept {
  return t.kind == TokKind::kPunct && t.text == text;
}

[[nodiscard]] const Token* at(const Tokens& toks, std::size_t i) noexcept {
  return i < toks.size() ? &toks[i] : nullptr;
}

[[nodiscard]] bool punct_at(const Tokens& toks, std::size_t i,
                            std::string_view text) noexcept {
  const Token* t = at(toks, i);
  return t != nullptr && is_punct(*t, text);
}

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

[[nodiscard]] std::string trim(std::string_view s) {
  std::size_t b = 0;
  std::size_t e = s.size();
  while (b < e && (s[b] == ' ' || s[b] == '\t')) ++b;
  while (e > b && (s[e - 1] == ' ' || s[e - 1] == '\t' || s[e - 1] == '\r'))
    --e;
  return std::string(s.substr(b, e - b));
}

void emit(std::vector<Diagnostic>* out, const std::string& path, int line,
          std::string rule, std::string message) {
  out->push_back(Diagnostic{path, line, rule, rule_severity(rule),
                            std::move(message)});
}

// ---------------------------------------------------------------------------
// Function / named-lambda span detection

struct Span {
  std::string name;
  int name_line = 0;
  std::size_t body_begin = 0;  ///< token index just inside '{'
  std::size_t body_end = 0;    ///< token index of the matching '}'
};

const std::unordered_set<std::string>& not_a_function() {
  static const std::unordered_set<std::string> kSet = {
      "if",      "for",    "while",     "switch",   "catch",
      "return",  "sizeof", "alignof",   "decltype", "operator",
      "new",     "delete", "throw",     "co_return", "co_await",
      "co_yield", "requires", "static_assert", "alignas", "assert",
      // `if constexpr (...) { ... }` scans exactly like `name (args) {` —
      // without these, every such block becomes a bogus span/call named
      // after the keyword, wiring unrelated code into the call graph.
      "constexpr", "consteval", "constinit", "noexcept",
  };
  return kSet;
}

/// Advances past a constructor initializer list (`: member(...), base{...}`)
/// to the body '{'.  Returns the index of the body brace, or npos-like
/// toks.size() when the shape is not an initializer list.
[[nodiscard]] std::size_t skip_ctor_init(const Tokens& toks, std::size_t i) {
  ++i;  // ':'
  while (i < toks.size()) {
    // Qualified / templated initializee name.
    bool saw_name = false;
    while (i < toks.size() && (toks[i].kind == TokKind::kIdentifier ||
                               is_punct(toks[i], "::"))) {
      saw_name = toks[i].kind == TokKind::kIdentifier || saw_name;
      ++i;
    }
    if (punct_at(toks, i, "<")) i = skip_balanced(toks, i, "<", ">");
    if (!saw_name) return toks.size();
    if (punct_at(toks, i, "(")) {
      i = skip_balanced(toks, i, "(", ")");
    } else if (punct_at(toks, i, "{")) {
      i = skip_balanced(toks, i, "{", "}");
    } else {
      return toks.size();
    }
    if (punct_at(toks, i, ",")) {
      ++i;
      continue;
    }
    if (punct_at(toks, i, "{")) return i;
    return toks.size();
  }
  return toks.size();
}

/// From the token after the parameter list's ')', finds the body '{' of a
/// function definition, tolerating the usual declarator suffix.  Returns
/// toks.size() when this is a declaration or not a function at all.
[[nodiscard]] std::size_t find_body_brace(const Tokens& toks, std::size_t k) {
  while (k < toks.size()) {
    const Token& s = toks[k];
    if (is_punct(s, "{")) return k;
    if (is_punct(s, ";")) return toks.size();
    if (s.kind == TokKind::kIdentifier &&
        (s.text == "const" || s.text == "override" || s.text == "final" ||
         s.text == "mutable")) {
      ++k;
      continue;
    }
    if (s.kind == TokKind::kIdentifier && s.text == "noexcept") {
      ++k;
      if (punct_at(toks, k, "(")) k = skip_balanced(toks, k, "(", ")");
      continue;
    }
    if (is_punct(s, "&")) {
      ++k;
      continue;
    }
    if (is_punct(s, "->")) {
      // Trailing return type: consume type tokens up to the body.
      ++k;
      while (k < toks.size() && !is_punct(toks[k], "{") &&
             !is_punct(toks[k], ";") && !is_punct(toks[k], "=")) {
        if (is_punct(toks[k], "<")) {
          k = skip_balanced(toks, k, "<", ">");
        } else {
          ++k;
        }
      }
      continue;
    }
    if (is_punct(s, ":")) {
      const std::size_t body = skip_ctor_init(toks, k);
      return body < toks.size() ? body : toks.size();
    }
    return toks.size();
  }
  return toks.size();
}

[[nodiscard]] std::vector<Span> detect_spans(const Tokens& toks) {
  std::vector<Span> spans;
  for (std::size_t i = 0; i < toks.size(); ++i) {
    const Token& t = toks[i];
    if (t.kind != TokKind::kIdentifier) continue;
    if (not_a_function().count(t.text) != 0) continue;

    // Named lambda: `name = [capture](params) specifiers { body }`.
    if (punct_at(toks, i + 1, "=") && punct_at(toks, i + 2, "[")) {
      std::size_t j = skip_balanced(toks, i + 2, "[", "]");
      if (punct_at(toks, j, "(")) j = skip_balanced(toks, j, "(", ")");
      // Specifier / trailing-return window before the body; bounded so a
      // misparse (`x = [expr] + y;`) cannot run away.
      std::size_t guard = 0;
      while (j < toks.size() && guard++ < 16 && !is_punct(toks[j], "{") &&
             !is_punct(toks[j], ";") && !is_punct(toks[j], ",") &&
             !is_punct(toks[j], ")")) {
        if (is_punct(toks[j], "<")) {
          j = skip_balanced(toks, j, "<", ">");
        } else {
          ++j;
        }
      }
      if (j < toks.size() && is_punct(toks[j], "{")) {
        const std::size_t close = skip_balanced(toks, j, "{", "}");
        spans.push_back(Span{t.text, t.line, j + 1, close - 1});
      }
      continue;
    }

    // Function definition: `name(params) suffix { body }`.
    if (!punct_at(toks, i + 1, "(")) continue;
    if (i > 0 && (is_punct(toks[i - 1], ".") || is_punct(toks[i - 1], "->")))
      continue;  // member call, cannot be a definition
    const std::size_t k = skip_balanced(toks, i + 1, "(", ")");
    const std::size_t body = find_body_brace(toks, k);
    if (body >= toks.size()) continue;
    const std::size_t close = skip_balanced(toks, body, "{", "}");
    spans.push_back(Span{t.text, t.line, body + 1, close - 1});
  }
  return spans;
}

/// Innermost span containing token index `idx`, or -1.
[[nodiscard]] int innermost_span(const std::vector<Span>& spans,
                                 std::size_t idx) {
  int best = -1;
  for (std::size_t s = 0; s < spans.size(); ++s) {
    if (spans[s].body_begin > idx) break;
    if (idx < spans[s].body_end) best = static_cast<int>(s);
  }
  return best;
}

// ---------------------------------------------------------------------------
// Annotation parsing

/// First and last token index on `line` (tokens are line-sorted).
[[nodiscard]] std::pair<std::size_t, std::size_t> line_token_range(
    const Tokens& toks, int line) {
  const auto lo = std::lower_bound(
      toks.begin(), toks.end(), line,
      [](const Token& t, int l) { return t.line < l; });
  const auto hi = std::upper_bound(
      toks.begin(), toks.end(), line,
      [](int l, const Token& t) { return l < t.line; });
  return {static_cast<std::size_t>(lo - toks.begin()),
          static_cast<std::size_t>(hi - toks.begin())};
}

/// The annotated field on `line`: last identifier before the first of
/// ';' '=' '{'.  Empty when the line declares nothing field-like.
[[nodiscard]] std::string field_target(const Tokens& toks, int line) {
  const auto [lo, hi] = line_token_range(toks, line);
  std::string name;
  for (std::size_t i = lo; i < hi; ++i) {
    if (is_punct(toks[i], ";") || is_punct(toks[i], "=") ||
        is_punct(toks[i], "{")) {
      break;
    }
    if (toks[i].kind == TokKind::kIdentifier) name = toks[i].text;
  }
  return name;
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
  const Tokens& toks = lexed.tokens;

  run_local_rules(path, lexed, config, &summary.local);
  collect_container_names(lexed, &summary.unordered_names,
                          &summary.sorted_names);
  collect_status_functions(lexed, &summary.status_functions);
  collect_discard_candidates(lexed, &summary.discard_candidates);

  // Include edges out of the opaque directive tokens.
  for (const Token& t : toks) {
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

  // TBP_GUARDED_BY comment-attributes.
  std::map<std::string, FieldSymbol> fields;
  for (const Comment& comment : lexed.comments) {
    const int target = comment.own_line ? comment.line + 1 : comment.line;
    // Annotations must open the comment (same anchoring as suppressions),
    // so documentation can spell the grammar without tripping it.
    const std::string text = trim(comment.text);
    if (text.rfind("TBP_GUARDED_BY(", 0) != 0) continue;
    const std::size_t open = 14;
    const std::size_t close = text.find(')', open);
    const std::string mutex =
        close == std::string::npos
            ? std::string()
            : trim(text.substr(open + 1, close - open - 1));
    const std::string name = field_target(toks, target);
    if (mutex.empty() || name.empty()) {
      emit(&summary.local, path, comment.line, "guarded-by",
           mutex.empty()
               ? "malformed TBP_GUARDED_BY: write 'TBP_GUARDED_BY(mutex)'"
               : "TBP_GUARDED_BY annotation has no field declaration on "
                 "its target line");
    } else {
      FieldSymbol& f = fields[name];
      f.name = name;
      f.line = target;
      f.guarded_by = mutex;
    }
  }

  for (auto& [name, field] : fields) summary.fields.push_back(field);

  // Suppressions last, so parse errors in annotations stay diagnostics.
  for (const Comment& comment : lexed.comments) {
    Suppression sup;
    if (parse_suppression(comment, &sup)) summary.suppressions.push_back(sup);
  }
  return summary;
}

// ---------------------------------------------------------------------------
// Pair rules: unordered iteration + lock discipline

namespace {

struct LockRegion {
  std::size_t begin = 0;  ///< token index of the lock declaration
  std::size_t end = 0;    ///< token index of the enclosing scope's '}'
  std::vector<std::string> mutexes;
};

const std::unordered_set<std::string>& lock_types() {
  static const std::unordered_set<std::string> kSet = {
      "scoped_lock", "lock_guard", "unique_lock", "shared_lock"};
  return kSet;
}

[[nodiscard]] std::vector<LockRegion> find_lock_regions(const Tokens& toks) {
  // Matching close brace for every open brace, so a lock declaration can be
  // extended to the end of its enclosing scope.
  std::unordered_map<std::size_t, std::size_t> close_of;
  {
    std::vector<std::size_t> stack;
    for (std::size_t i = 0; i < toks.size(); ++i) {
      if (is_punct(toks[i], "{")) stack.push_back(i);
      if (is_punct(toks[i], "}") && !stack.empty()) {
        close_of[stack.back()] = i;
        stack.pop_back();
      }
    }
  }

  std::vector<LockRegion> regions;
  std::vector<std::size_t> stack;
  for (std::size_t i = 0; i < toks.size(); ++i) {
    if (is_punct(toks[i], "{")) stack.push_back(i);
    if (is_punct(toks[i], "}") && !stack.empty()) stack.pop_back();
    if (toks[i].kind != TokKind::kIdentifier ||
        lock_types().count(toks[i].text) == 0) {
      continue;
    }
    std::size_t j = i + 1;
    if (punct_at(toks, j, "<")) j = skip_balanced(toks, j, "<", ">");
    if (at(toks, j) != nullptr && toks[j].kind == TokKind::kIdentifier) ++j;
    const bool paren = punct_at(toks, j, "(");
    if (!paren && !punct_at(toks, j, "{")) continue;
    const char* opener = paren ? "(" : "{";
    const char* closer = paren ? ")" : "}";
    const std::size_t end = skip_balanced(toks, j, opener, closer);

    LockRegion region;
    region.begin = i;
    std::size_t scope_end = toks.size();
    if (!stack.empty()) {
      const auto it = close_of.find(stack.back());
      if (it != close_of.end()) scope_end = it->second;
    }
    region.end = scope_end;
    // Trailing identifier of each top-level ctor argument is the mutex
    // (`batch->mutex` → "mutex", `mutex_` → "mutex_").
    std::size_t depth = 0;
    std::string arg;
    for (std::size_t k = j; k < end; ++k) {
      if (is_punct(toks[k], opener)) ++depth;
      if (is_punct(toks[k], closer)) {
        if (--depth == 0 && !arg.empty()) region.mutexes.push_back(arg);
      }
      if (depth == 1 && toks[k].kind == TokKind::kIdentifier) arg = toks[k].text;
      if (depth == 1 && is_punct(toks[k], ",")) {
        if (!arg.empty()) region.mutexes.push_back(arg);
        arg.clear();
      }
    }
    if (!region.mutexes.empty()) regions.push_back(region);
  }
  return regions;
}

[[nodiscard]] bool in_locked_context(const std::vector<Span>& spans,
                                     const std::vector<LockRegion>& regions,
                                     std::size_t idx,
                                     const std::string& mutex) {
  for (const LockRegion& r : regions) {
    if (idx <= r.begin || idx >= r.end) continue;
    if (mutex.empty()) return true;  // any held lock qualifies
    if (std::find(r.mutexes.begin(), r.mutexes.end(), mutex) !=
        r.mutexes.end()) {
      return true;
    }
  }
  // Any enclosing `*_locked` helper: the caller holds the lock by contract.
  for (const Span& s : spans) {
    if (s.body_begin <= idx && idx < s.body_end &&
        s.name.ends_with("_locked")) {
      return true;
    }
  }
  return false;
}

void check_guarded_by(const std::string& path, const LexedFile& lexed,
                      const std::map<std::string, std::string>& guarded,
                      std::vector<Diagnostic>* out) {
  if (guarded.empty()) return;
  const Tokens& toks = lexed.tokens;
  const std::vector<Span> spans = detect_spans(toks);
  const std::vector<LockRegion> regions = find_lock_regions(toks);

  for (std::size_t i = 0; i < toks.size(); ++i) {
    const Token& t = toks[i];
    if (t.kind != TokKind::kIdentifier) continue;

    // `foo_locked(...)` helpers assume the lock; calling one from an
    // unlocked scope is the same bug as touching the field directly.
    if (t.text.ends_with("_locked") && punct_at(toks, i + 1, "(") &&
        innermost_span(spans, i) >= 0 &&
        !in_locked_context(spans, regions, i, std::string())) {
      emit(out, path, t.line, "guarded-by",
           "call to '" + t.text +
               "' (lock-assuming helper) outside any lock scope");
      continue;
    }

    const auto it = guarded.find(t.text);
    if (it == guarded.end()) continue;
    // Class-scope mentions (the declaration itself, initializers) are not
    // concurrent accesses.
    if (innermost_span(spans, i) < 0) continue;
    if (in_locked_context(spans, regions, i, it->second)) continue;
    emit(out, path, t.line, "guarded-by",
         "field '" + t.text + "' is TBP_GUARDED_BY(" + it->second +
             ") but no enclosing scope holds '" + it->second + "'");
  }
}

}  // namespace

void run_pair_rules(const std::string& path, const LexedFile& lexed,
                    const LintConfig& config, const FileSummary* companion,
                    FileSummary* summary) {
  std::unordered_set<std::string> unordered(summary->unordered_names.begin(),
                                            summary->unordered_names.end());
  std::unordered_set<std::string> sorted(summary->sorted_names.begin(),
                                         summary->sorted_names.end());
  std::map<std::string, std::string> guarded;
  for (const FieldSymbol& f : summary->fields) guarded[f.name] = f.guarded_by;
  if (companion != nullptr) {
    unordered.insert(companion->unordered_names.begin(),
                     companion->unordered_names.end());
    sorted.insert(companion->sorted_names.begin(),
                  companion->sorted_names.end());
    for (const FieldSymbol& f : companion->fields) {
      guarded[f.name] = f.guarded_by;
    }
  }
  check_unordered_iteration(path, lexed, config, unordered, sorted,
                            &summary->local);
  check_guarded_by(path, lexed, guarded, &summary->local);
}

}  // namespace tbp_lint
