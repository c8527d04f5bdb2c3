#include "prof/sidecar.hpp"

#include <cstdint>
#include <utility>

namespace tbp::prof {
namespace {

obs::JsonValue histogram_to_value(const obs::Histogram& hist) {
  obs::JsonValue value = obs::JsonValue::object();
  obs::JsonValue::Array bounds;
  bounds.reserve(hist.bounds().size());
  for (const std::uint64_t b : hist.bounds()) bounds.emplace_back(b);
  obs::JsonValue::Array counts;
  counts.reserve(hist.counts().size());
  for (const std::uint64_t c : hist.counts()) counts.emplace_back(c);
  value.set("bounds", obs::JsonValue(std::move(bounds)));
  value.set("counts", obs::JsonValue(std::move(counts)));
  return value;
}

double percentile_seconds(const obs::Histogram& hist, double q) {
  return static_cast<double>(percentile_upper_bound(hist, q)) / 1e6;
}

}  // namespace

obs::JsonValue spans_to_value(const ProfSession& session) {
  obs::JsonValue spans = obs::JsonValue::object();
  for (const auto& [name, stats] : session.span_snapshot()) {
    obs::JsonValue span = obs::JsonValue::object();
    span.set("count", obs::JsonValue(stats.count));
    span.set("total_seconds", obs::JsonValue(stats.total_seconds));
    span.set("p50_seconds",
             obs::JsonValue(percentile_seconds(stats.latency_us, 0.50)));
    span.set("p95_seconds",
             obs::JsonValue(percentile_seconds(stats.latency_us, 0.95)));
    span.set("p99_seconds",
             obs::JsonValue(percentile_seconds(stats.latency_us, 0.99)));
    span.set("latency_us", histogram_to_value(stats.latency_us));
    spans.set(name, std::move(span));
  }
  return spans;
}

obs::JsonValue prof_body(const ProfSession& session) {
  obs::JsonValue body = obs::JsonValue::object();
  body.set("spans", spans_to_value(session));
  return body;
}

Status write_prof_sidecar(const ProfSession& session, const std::string& path) {
  return obs::write_json_file(obs::seal_json(kProfSchema, prof_body(session)),
                              path);
}

}  // namespace tbp::prof
