#include "report_lib.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <map>
#include <string_view>
#include <utility>

#include "harness/cli.hpp"
#include "harness/table.hpp"
#include "obs/report.hpp"
#include "prof/sidecar.hpp"
#include "service/stats.hpp"
#include "support/atomic_file.hpp"
#include "support/status.hpp"

namespace tbp::report {

namespace {

using obs::JsonValue;

struct LoadedDoc {
  std::string schema;
  JsonValue body;
};

/// Reads a sealed document of either known schema; the schema member
/// dispatches, the CRC seal validates.
[[nodiscard]] Result<LoadedDoc> load_document(const std::string& path) {
  Result<std::string> text = io::read_file_limited(std::filesystem::path(path));
  if (!text.ok()) return text.status();
  Result<JsonValue> parsed = obs::json_parse(*text);
  if (!parsed.ok()) return parsed.status();
  const JsonValue* schema = parsed->find("schema");
  if (schema == nullptr || !schema->is_string()) {
    return Status(StatusCode::kCorrupt, path + ": missing schema member");
  }
  const std::string tag = schema->as_string();
  if (tag != obs::kManifestSchema && tag != obs::kBenchPerfSchema &&
      tag != prof::kProfSchema && tag != service::kServiceStatsSchema) {
    return Status(StatusCode::kVersionMismatch, path + ": unknown schema '" + tag + "'");
  }
  Result<JsonValue> body = obs::open_json(*text, tag);
  if (!body.ok()) return body.status();
  return LoadedDoc{tag, *std::move(body)};
}

[[nodiscard]] double num(const JsonValue* v) {
  return v == nullptr ? 0.0 : v->as_double();
}

[[nodiscard]] double num_member(const JsonValue& object, std::string_view key) {
  return num(object.find(key));
}

void print_config(const JsonValue& body, std::FILE* out) {
  const JsonValue* config = body.find("config");
  if (config == nullptr || !config->is_object()) return;
  std::fputs("config:", out);
  for (const auto& [key, value] : config->members()) {
    std::string rendered;
    if (value.is_string()) {
      rendered = value.as_string();
    } else {
      rendered = obs::json_serialize(value);
    }
    std::fprintf(out, " %s=%s", key.c_str(), rendered.c_str());
  }
  std::fputc('\n', out);
}

/// Content-store health in one line: the hit/miss/eviction/quarantine
/// counters the run recorded, in key order, so cache behavior is visible
/// without opening the raw JSON.  Bench-perf documents carry them as a
/// `store` object; manifests as `store.*` keys under metrics.counters.
void print_store_counters(const JsonValue& body, std::FILE* out) {
  std::string line;
  const auto append = [&line](const std::string& name, const JsonValue& v) {
    if (!v.is_number()) return;
    line += ' ';
    line += name;
    line += '=';
    line += std::to_string(v.as_u64());
  };
  const JsonValue* store = body.find("store");
  if (store != nullptr && store->is_object()) {
    for (const auto& [key, value] : store->members()) append(key, value);
  } else {
    const JsonValue* metrics = body.find("metrics");
    const JsonValue* counters =
        metrics != nullptr ? metrics->find("counters") : nullptr;
    if (counters == nullptr || !counters->is_object()) return;
    for (const auto& [key, value] : counters->members()) {
      if (key.rfind("store.", 0) == 0) append(key.substr(6), value);
    }
  }
  if (!line.empty()) std::fprintf(out, "store:%s\n", line.c_str());
}

void print_workloads(const JsonValue& body, std::FILE* out) {
  const JsonValue* workloads = body.find("workloads");
  if (workloads == nullptr || !workloads->is_array() ||
      workloads->items().empty()) {
    return;
  }

  std::fputs("\nAccuracy attribution (signed % of exact IPC):\n", out);
  harness::TablePrinter table({"workload", "exact IPC", "TBP IPC", "err%",
                               "inter%", "warmup%", "recon%", "sample%"});
  for (const JsonValue& w : workloads->items()) {
    const JsonValue* attr = w.find("attribution");
    const bool valid = attr != nullptr && attr->find("valid") != nullptr &&
                       attr->find("valid")->as_bool();
    table.add_row({
        w.find("name") != nullptr ? w.find("name")->as_string() : "?",
        harness::fmt(num_member(w, "exact_ipc"), 4),
        harness::fmt(num_member(w, "predicted_ipc"), 4),
        harness::fmt(num_member(w, "error_pct"), 3),
        valid ? harness::fmt(num_member(*attr, "inter_pct"), 3) : "-",
        valid ? harness::fmt(num_member(*attr, "warmup_pct"), 3) : "-",
        valid ? harness::fmt(num_member(*attr, "reconstruction_pct"), 3) : "-",
        harness::fmt(num_member(w, "sample_pct"), 2),
    });
  }
  table.print(out);

  // The speedup knob is the sample size: simulating sample_pct of the
  // instructions is a ~100/sample_pct speedup over full simulation.  Sorted
  // by sample size the table reads as the speedup-vs-error frontier.
  std::fputs("\nSpeedup vs. error frontier (by sample size):\n", out);
  std::vector<const JsonValue*> by_sample;
  for (const JsonValue& w : workloads->items()) by_sample.push_back(&w);
  std::stable_sort(by_sample.begin(), by_sample.end(),
                   [](const JsonValue* a, const JsonValue* b) {
                     return num_member(*a, "sample_pct") <
                            num_member(*b, "sample_pct");
                   });
  harness::TablePrinter frontier({"sample%", "est. speedup", "|err|%", "workload"});
  for (const JsonValue* w : by_sample) {
    const double sample = num_member(*w, "sample_pct");
    frontier.add_row({
        harness::fmt(sample, 2),
        sample > 0.0 ? harness::fmt(100.0 / sample, 1) + "x" : "-",
        harness::fmt(std::abs(num_member(*w, "error_pct")), 3),
        w->find("name") != nullptr ? w->find("name")->as_string() : "?",
    });
  }
  frontier.print(out);

  for (const JsonValue& w : workloads->items()) {
    const JsonValue* attr = w.find("attribution");
    if (attr == nullptr) continue;
    const JsonValue* clusters = attr->find("clusters");
    if (clusters == nullptr || !clusters->is_array() ||
        clusters->items().empty()) {
      continue;
    }
    std::fprintf(out, "\nclusters: %s\n",
                 w.find("name") != nullptr ? w.find("name")->as_string().c_str()
                                           : "?");
    harness::TablePrinter ct({"cluster", "rep", "launches", "scale", "dist",
                              "inter cyc", "warmup cyc", "recon cyc"});
    for (const JsonValue& c : clusters->items()) {
      ct.add_row({
          std::to_string(static_cast<long long>(num_member(c, "cluster"))),
          std::to_string(static_cast<long long>(num_member(c, "rep_launch"))),
          std::to_string(static_cast<long long>(num_member(c, "n_launches"))),
          harness::fmt(num_member(c, "scale"), 3),
          harness::fmt(num_member(c, "mean_distance_to_rep"), 4),
          harness::fmt(num_member(c, "inter_cycles"), 1),
          harness::fmt(num_member(c, "warmup_cycles"), 1),
          harness::fmt(num_member(c, "recon_cycles"), 1),
      });
    }
    ct.print(out);
  }
}

void print_bench_perf(const JsonValue& body, std::FILE* out) {
  std::string line =
      body.find("bench") != nullptr ? body.find("bench")->as_string() : "?";
  // The parallelism the wall times were measured under; the micros carry
  // no --jobs, and older documents neither field.
  for (const std::string_view key : {"jobs", "nproc"}) {
    const JsonValue* value = body.find(key);
    if (value == nullptr || !value->is_number()) continue;
    line += ' ';
    line += key;
    line += '=';
    line += std::to_string(value->as_u64());
  }
  std::fprintf(out, "bench: %s\n", line.c_str());
  const JsonValue* entries = body.find("entries");
  if (entries == nullptr || !entries->is_object()) return;
  harness::TablePrinter table(
      {"entry", "wall s", "Mcycles/s", "L1 hit%", "cached"});
  for (const auto& [name, entry] : entries->members()) {
    // Figure benches report per-entry wall_seconds; the google-benchmark
    // micros report per-iteration time instead.
    const JsonValue* wall = entry.find("wall_seconds");
    if (wall == nullptr) wall = entry.find("iteration_seconds");
    table.add_row({
        name,
        harness::fmt(num(wall), 3),
        harness::fmt(num_member(entry, "sim_cycles_per_second") / 1e6, 2),
        harness::fmt(num_member(entry, "l1_hit_rate") * 100.0, 1),
        entry.find("from_cache") != nullptr &&
                entry.find("from_cache")->as_bool()
            ? "yes"
            : "no",
    });
  }
  table.print(out);
}

// ---------------------------------------------------------------------------
// prof / service stats

/// The wall-clock span table shared by tbp-prof-v1 sidecars and the spans
/// block of tbp-service-stats-v1 ledgers: per-span count, total time and
/// the latency percentiles the sidecar precomputed from its deterministic
/// power-of-two microsecond buckets.
void print_spans(const JsonValue& body, std::FILE* out) {
  const JsonValue* spans = body.find("spans");
  if (spans == nullptr || !spans->is_object() || spans->members().empty()) {
    return;
  }
  std::fputs("\nwall-clock spans:\n", out);
  harness::TablePrinter table(
      {"span", "count", "total s", "p50 ms", "p95 ms", "p99 ms"});
  for (const auto& [name, span] : spans->members()) {
    table.add_row({
        name,
        std::to_string(static_cast<unsigned long long>(
            num_member(span, "count"))),
        harness::fmt(num_member(span, "total_seconds"), 3),
        harness::fmt(num_member(span, "p50_seconds") * 1e3, 3),
        harness::fmt(num_member(span, "p95_seconds") * 1e3, 3),
        harness::fmt(num_member(span, "p99_seconds") * 1e3, 3),
    });
  }
  table.print(out);
}

void print_service_stats(const JsonValue& body, std::FILE* out) {
  const JsonValue* counters = body.find("counters");
  if (counters != nullptr && counters->is_object()) {
    harness::TablePrinter table({"counter", "value"});
    for (const auto& [key, value] : counters->members()) {
      table.add_row({key, std::to_string(static_cast<unsigned long long>(
                              value.as_u64()))});
    }
    table.print(out);
  }
  print_spans(body, out);
}

// ---------------------------------------------------------------------------
// compare

enum class Direction : std::uint8_t {
  kLowerBetter,    ///< wall/seconds-style costs
  kHigherBetter,   ///< throughput, hit rates
  kLowerAbsBetter, ///< signed error percentages
  kInfo,           ///< everything else: reported, never gated
};

[[nodiscard]] bool ends_with(std::string_view s, std::string_view suffix) {
  return s.size() >= suffix.size() &&
         s.substr(s.size() - suffix.size()) == suffix;
}

[[nodiscard]] Direction classify(std::string_view path) {
  if (ends_with(path, "seconds")) return Direction::kLowerBetter;
  if (ends_with(path, "per_second")) return Direction::kHigherBetter;
  if (ends_with(path, "hit_rate")) return Direction::kHigherBetter;
  if (ends_with(path, "error_pct") || ends_with(path, "_pct") ||
      ends_with(path, "err_ppb")) {
    return Direction::kLowerAbsBetter;
  }
  return Direction::kInfo;
}

/// Flattens every numeric leaf into "a.b[2].c" → value.
void flatten(const JsonValue& value, const std::string& prefix,
             std::map<std::string, double>& out) {
  if (value.is_number()) {
    out.emplace(prefix, value.as_double());
  } else if (value.is_object()) {
    for (const auto& [key, member] : value.members()) {
      flatten(member, prefix.empty() ? key : prefix + "." + key, out);
    }
  } else if (value.is_array()) {
    std::size_t i = 0;
    for (const JsonValue& item : value.items()) {
      flatten(item, prefix + "[" + std::to_string(i) + "]", out);
      ++i;
    }
  }
}

/// Signed regression in percent (positive = worse), or 0 for info fields.
/// Near-zero baselines gate on a floor denominator instead of exploding.
[[nodiscard]] double regression_pct(Direction direction, double old_value,
                                    double new_value) {
  constexpr double kFloor = 1e-9;
  switch (direction) {
    case Direction::kLowerBetter: {
      const double denom = std::max(std::abs(old_value), kFloor);
      return (new_value - old_value) / denom * 100.0;
    }
    case Direction::kHigherBetter: {
      const double denom = std::max(std::abs(old_value), kFloor);
      return (old_value - new_value) / denom * 100.0;
    }
    case Direction::kLowerAbsBetter: {
      // Error percentages hover near zero; a 0.01-point absolute floor keeps
      // noise around an exact baseline from reading as an infinite regress.
      const double denom = std::max(std::abs(old_value), 0.01);
      return (std::abs(new_value) - std::abs(old_value)) / denom * 100.0;
    }
    case Direction::kInfo: return 0.0;
  }
  return 0.0;
}

}  // namespace

int cmd_show(const std::string& path, std::FILE* out) {
  Result<LoadedDoc> doc = load_document(path);
  if (!doc.ok()) {
    std::fprintf(stderr, "tbp-report: %s\n", doc.status().to_string().c_str());
    return kExitUnreadable;
  }
  std::fprintf(out, "%s (%s)\n", path.c_str(), doc->schema.c_str());
  if (doc->schema == obs::kBenchPerfSchema) {
    print_bench_perf(doc->body, out);
    print_store_counters(doc->body, out);
    return kExitOk;
  }
  if (doc->schema == service::kServiceStatsSchema) {
    print_service_stats(doc->body, out);
    return kExitOk;
  }
  if (doc->schema == prof::kProfSchema) {
    print_spans(doc->body, out);
    return kExitOk;
  }
  const JsonValue* tool = doc->body.find("tool");
  const JsonValue* command = doc->body.find("command");
  std::fprintf(out, "tool: %s %s\n",
               tool != nullptr ? tool->as_string().c_str() : "?",
               command != nullptr ? command->as_string().c_str() : "");
  print_config(doc->body, out);
  print_store_counters(doc->body, out);
  print_workloads(doc->body, out);
  return kExitOk;
}

int cmd_prof(const std::string& path, std::FILE* out) {
  Result<LoadedDoc> doc = load_document(path);
  if (!doc.ok()) {
    std::fprintf(stderr, "tbp-report: %s\n", doc.status().to_string().c_str());
    return kExitUnreadable;
  }
  if (doc->schema != prof::kProfSchema) {
    std::fprintf(stderr,
                 "tbp-report: %s: expected a %s sidecar, got %s "
                 "(use `tbp-report show` for other documents)\n",
                 path.c_str(), std::string(prof::kProfSchema).c_str(),
                 doc->schema.c_str());
    return kExitUnreadable;
  }
  std::fprintf(out, "%s (%s)\n", path.c_str(), doc->schema.c_str());
  print_spans(doc->body, out);
  return kExitOk;
}

int cmd_compare(const std::string& old_path, const std::string& new_path,
                const CompareOptions& options, std::FILE* out) {
  Result<LoadedDoc> old_doc = load_document(old_path);
  if (!old_doc.ok()) {
    std::fprintf(stderr, "tbp-report: %s\n",
                 old_doc.status().to_string().c_str());
    return kExitUnreadable;
  }
  Result<LoadedDoc> new_doc = load_document(new_path);
  if (!new_doc.ok()) {
    std::fprintf(stderr, "tbp-report: %s\n",
                 new_doc.status().to_string().c_str());
    return kExitUnreadable;
  }
  if (old_doc->schema != new_doc->schema) {
    std::fprintf(stderr, "tbp-report: schema mismatch: %s vs %s\n",
                 old_doc->schema.c_str(), new_doc->schema.c_str());
    return kExitUnreadable;
  }

  std::map<std::string, double> old_fields;
  std::map<std::string, double> new_fields;
  flatten(old_doc->body, "", old_fields);
  flatten(new_doc->body, "", new_fields);

  std::size_t gated = 0;
  std::size_t only_one_side = 0;
  std::vector<std::string> regressions;
  for (const auto& [path, old_value] : old_fields) {
    const auto it = new_fields.find(path);
    if (it == new_fields.end()) {
      ++only_one_side;
      continue;
    }
    const Direction direction = classify(path);
    if (direction == Direction::kInfo) continue;
    ++gated;
    const double regress = regression_pct(direction, old_value, it->second);
    if (regress > options.max_regress_pct) {
      char line[256];
      std::snprintf(line, sizeof(line), "%s: %.6g -> %.6g (%+.1f%%)",
                    path.c_str(), old_value, it->second, regress);
      regressions.push_back(line);
    }
  }
  for (const auto& [path, value] : new_fields) {
    (void)value;
    if (old_fields.find(path) == old_fields.end()) ++only_one_side;
  }

  std::fprintf(out,
               "compared %zu gated field(s) (max regress %.1f%%); "
               "%zu field(s) present on one side only\n",
               gated, options.max_regress_pct, only_one_side);
  if (regressions.empty()) {
    std::fputs("no regressions\n", out);
    return kExitOk;
  }
  std::fprintf(out, "%zu regression(s):\n", regressions.size());
  for (const std::string& line : regressions) {
    std::fprintf(out, "  %s\n", line.c_str());
  }
  return kExitRegressed;
}

int run_report(const std::vector<std::string>& args, std::FILE* out) {
  static constexpr const char* kUsage =
      "usage: tbp-report show <file.json>\n"
      "       tbp-report prof <prof.json>\n"
      "       tbp-report compare <old.json> <new.json> [--max-regress <pct>]\n";
  if (args.empty()) {
    std::fputs(kUsage, stderr);
    return kExitUnreadable;
  }
  const std::string& command = args[0];
  if (command == "show") {
    if (args.size() != 2) {
      std::fputs(kUsage, stderr);
      return kExitUnreadable;
    }
    return cmd_show(args[1], out);
  }
  if (command == "prof") {
    if (args.size() != 2) {
      std::fputs(kUsage, stderr);
      return kExitUnreadable;
    }
    return cmd_prof(args[1], out);
  }
  if (command == "compare") {
    CompareOptions options;
    std::vector<std::string> positional;
    for (std::size_t i = 1; i < args.size(); ++i) {
      if (args[i] == "--max-regress") {
        if (i + 1 >= args.size()) {
          std::fputs("tbp-report: --max-regress needs a value\n", stderr);
          return kExitUnreadable;
        }
        const Result<double> pct = harness::parse_double(args[++i]);
        if (!pct.has_value() || !std::isfinite(*pct) || *pct < 0.0) {
          std::fprintf(stderr, "tbp-report: invalid value for --max-regress: %s\n",
                       pct.has_value() ? "must be a finite number >= 0"
                                       : pct.status().message().c_str());
          return kExitUnreadable;
        }
        options.max_regress_pct = *pct;
      } else {
        positional.push_back(args[i]);
      }
    }
    if (positional.size() != 2) {
      std::fputs(kUsage, stderr);
      return kExitUnreadable;
    }
    return cmd_compare(positional[0], positional[1], options, out);
  }
  std::fputs(kUsage, stderr);
  return kExitUnreadable;
}

}  // namespace tbp::report
