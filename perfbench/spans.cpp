#include "spans.hpp"

#include <algorithm>
#include <cstdio>
#include <limits>
#include <utility>

#include "support/walltime.hpp"

namespace tbp::perfbench {

SpanLog::SpanLog() : origin_s_(timing::monotonic_seconds()) {}

int SpanLog::begin(std::string name, int parent, int row) {
  const double now = timing::monotonic_seconds() - origin_s_;
  std::lock_guard<std::mutex> lock(mutex_);
  spans_.push_back(Span{std::move(name), now, now, parent, row});
  return static_cast<int>(spans_.size()) - 1;
}

void SpanLog::end(int id) {
  const double now = timing::monotonic_seconds() - origin_s_;
  std::lock_guard<std::mutex> lock(mutex_);
  spans_[static_cast<std::size_t>(id)].end_s = now;
}

std::vector<Span> SpanLog::spans() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return spans_;
}

double union_length(std::vector<std::pair<double, double>> intervals) {
  std::sort(intervals.begin(), intervals.end());
  double covered = 0.0;
  double reached = -std::numeric_limits<double>::infinity();
  for (const auto& [lo, hi] : intervals) {
    const double from = std::max(lo, reached);
    if (hi > from) covered += hi - from;
    reached = std::max(reached, hi);
  }
  return covered;
}

std::vector<double> self_times(const std::vector<Span>& spans) {
  std::vector<std::vector<std::pair<double, double>>> children(spans.size());
  for (const Span& span : spans) {
    if (span.parent == kNoParent) continue;
    const Span& parent = spans[static_cast<std::size_t>(span.parent)];
    const double lo = std::max(span.start_s, parent.start_s);
    const double hi = std::min(span.end_s, parent.end_s);
    if (hi > lo) children[static_cast<std::size_t>(span.parent)].emplace_back(lo, hi);
  }
  std::vector<double> self(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    self[i] = spans[i].duration() - union_length(std::move(children[i]));
  }
  return self;
}

std::map<std::string, SpanTotals> totals_by_name(const std::vector<Span>& spans) {
  std::map<std::string, SpanTotals> totals;
  for (const Span& span : spans) {
    SpanTotals& t = totals[span.name];
    ++t.count;
    t.total_s += span.duration();
  }
  return totals;
}

bool write_spans_json(const std::vector<Span>& spans, const std::string& path) {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return false;
  const std::vector<double> self = self_times(spans);
  std::fprintf(out, "{\"schema\":\"tbp-perfbench-spans-v1\",\"spans\":[\n");
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    std::fprintf(out,
                 "%s{\"id\":%zu,\"name\":\"%s\",\"start_s\":%.9f,\"end_s\":%.9f,"
                 "\"parent\":%d,\"row\":%d,\"self_s\":%.9f}\n",
                 i == 0 ? "" : ",", i, s.name.c_str(), s.start_s, s.end_s,
                 s.parent, s.row, self[i]);
  }
  std::fprintf(out, "]}\n");
  return std::fclose(out) == 0;
}

}  // namespace tbp::perfbench
