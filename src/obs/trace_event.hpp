// Chrome trace-event timeline capture (the chrome://tracing / Perfetto JSON
// format, "JSON Array Format" in the trace-event spec).
//
// Timestamps are simulator cycles reported as trace microseconds (1 ts unit
// = 1 GPU cycle); the viewers only need a monotonic integer axis, and
// cycles keep the timeline exact.  A TraceBuffer records one simulated
// launch (full simulation or TBPoint representative); tid is the SM id
// within it, with synthetic rows past the SMs for sampling-unit boundaries
// and the region sampler's phase spans.  Buffers carry no pid: the
// observation session numbers them and names each after its key when it
// merges them (obs::Observation::merged_trace).
//
// Like metrics shards, a TraceBuffer is single-threaded by contract: one
// buffer per parallel task, merged in stable key order afterwards, so the
// exported file is bit-identical for every --jobs value.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace tbp::obs {

struct TraceEvent {
  std::string name;
  std::string cat;
  char ph = 'X';  ///< 'X' complete, 'i' instant, 'M' metadata
  std::uint32_t pid = 0;  ///< the buffer's number, set at merge
  std::uint32_t tid = 0;
  std::uint64_t ts = 0;   ///< cycles
  std::uint64_t dur = 0;  ///< cycles, complete events only
  /// Pre-rendered JSON values keyed by argument name (use json_number /
  /// json_string so escaping happens exactly once).
  std::vector<std::pair<std::string, std::string>> args;
};

/// Renders a value as a JSON literal for TraceEvent::args.
[[nodiscard]] std::string json_number(std::uint64_t value);
[[nodiscard]] std::string json_number(double value);
/// Escapes and quotes `text` as a JSON string literal.
[[nodiscard]] std::string json_string(std::string_view text);

class TraceBuffer {
 public:
  /// A span: [ts, ts + dur).
  void complete(std::string_view name, std::string_view cat, std::uint32_t tid,
                std::uint64_t ts, std::uint64_t dur,
                std::vector<std::pair<std::string, std::string>> args = {});

  /// A zero-duration marker at ts (thread scope).
  void instant(std::string_view name, std::string_view cat, std::uint32_t tid,
               std::uint64_t ts,
               std::vector<std::pair<std::string, std::string>> args = {});

  /// Metadata naming a tid row ("SM 3", "region-sampler").
  void thread_name(std::uint32_t tid, std::string_view name);

  [[nodiscard]] std::span<const TraceEvent> events() const noexcept {
    return events_;
  }
  [[nodiscard]] bool empty() const noexcept { return events_.empty(); }

 private:
  std::vector<TraceEvent> events_;
};

/// Writes the events as a complete chrome://tracing JSON document.  Events
/// are emitted in the order given (callers merge buffers in stable key
/// order; the viewers sort by ts themselves).
void write_chrome_trace(std::span<const TraceEvent> events, std::ostream& out);

}  // namespace tbp::obs
