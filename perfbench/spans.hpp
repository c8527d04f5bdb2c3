// In-memory span log for the traced benchmark run.
//
// A span is one call into a library layer (or a phase grouping such calls),
// with its start, end, parent span and the row it belongs to.  Spans are
// kept in memory while the run executes and written out when it ends; self
// time is derived afterwards as the span's duration minus the part of its
// interval its children cover.
#pragma once

#include <cstddef>
#include <map>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace tbp::perfbench {

inline constexpr int kNoParent = -1;

struct Span {
  std::string name;
  double start_s = 0.0;  ///< seconds since the log was created
  double end_s = 0.0;
  int parent = kNoParent;
  int row = -1;  ///< index of the workload row; -1 outside any row

  [[nodiscard]] double duration() const noexcept { return end_s - start_s; }
};

class SpanLog {
 public:
  SpanLog();

  /// Opens a span and returns its id.  Thread-safe.
  int begin(std::string name, int parent, int row);
  /// Closes span `id`.  Thread-safe.
  void end(int id);

  /// A copy of every span recorded so far, indexed by id.
  [[nodiscard]] std::vector<Span> spans() const;

 private:
  double origin_s_;
  mutable std::mutex mutex_;
  std::vector<Span> spans_;
};

/// Opens a span on construction and closes it on destruction.
class ScopedSpan {
 public:
  ScopedSpan(SpanLog& log, std::string name, int parent, int row)
      : log_(log), id_(log.begin(std::move(name), parent, row)) {}
  ~ScopedSpan() { log_.end(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  [[nodiscard]] int id() const noexcept { return id_; }

 private:
  SpanLog& log_;
  int id_;
};

/// Total length covered by `intervals` ([start, end) pairs); overlapping
/// intervals count once.
[[nodiscard]] double union_length(std::vector<std::pair<double, double>> intervals);

/// Per span: its duration minus the union of its children's intervals
/// (clipped to the span).  Children may overlap when they ran on several
/// threads; the union counts each covered instant once.
[[nodiscard]] std::vector<double> self_times(const std::vector<Span>& spans);

/// Aggregate per span name: count and summed duration.
struct SpanTotals {
  std::size_t count = 0;
  double total_s = 0.0;
};
[[nodiscard]] std::map<std::string, SpanTotals> totals_by_name(
    const std::vector<Span>& spans);

/// Writes the spans (with their self times) as one JSON document.
[[nodiscard]] bool write_spans_json(const std::vector<Span>& spans,
                                    const std::string& path);

}  // namespace tbp::perfbench
