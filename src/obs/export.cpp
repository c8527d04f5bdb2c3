#include "obs/export.hpp"

#include <array>
#include <cstdio>
#include <sstream>

#include "support/atomic_file.hpp"

namespace tbp::obs {

MetricsShard* Observation::metrics_shard(const std::string& key) {
  if (!metrics_on_) return nullptr;
  const auto registry = registry_.lock();
  auto& slot = registry->shards[key];
  if (!slot) slot = std::make_unique<MetricsShard>();
  return slot.get();
}

TraceBuffer* Observation::trace_buffer(const std::string& key) {
  if (!trace_on_) return nullptr;
  const auto registry = registry_.lock();
  auto& slot = registry->buffers[key];
  if (!slot) slot = std::make_unique<TraceBuffer>();
  return slot.get();
}

MetricsSnapshot Observation::merged_metrics(std::string_view key_prefix) const {
  const auto registry = registry_.lock();
  MetricsSnapshot snapshot;
  for (const auto& [key, shard] : registry->shards) {
    if (key.compare(0, key_prefix.size(), key_prefix) != 0) continue;
    snapshot.absorb(*shard);
  }
  return snapshot;
}

std::vector<TraceEvent> Observation::merged_trace() const {
  const auto registry = registry_.lock();
  std::vector<TraceEvent> events;
  std::uint32_t pid = 0;
  for (const auto& [key, buffer] : registry->buffers) {
    events.push_back(TraceEvent{.name = "process_name",
                                .cat = "__metadata",
                                .ph = 'M',
                                .pid = pid,
                                .args = {{"name", json_string(key)}}});
    for (const TraceEvent& event : buffer->events()) {
      events.push_back(event);
      events.back().pid = pid;
    }
    ++pid;
  }
  return events;
}

std::string metrics_to_json(const MetricsSnapshot& snapshot) {
  std::ostringstream out;
  out << "{\n  \"counters\": {";
  for (std::size_t i = 0; i < snapshot.counters.size(); ++i) {
    if (i > 0) out << ",";
    out << "\n    " << json_string(snapshot.counters[i].first) << ": "
        << snapshot.counters[i].second;
  }
  out << "\n  },\n  \"histograms\": {";
  for (std::size_t i = 0; i < snapshot.histograms.size(); ++i) {
    if (i > 0) out << ",";
    const Histogram& hist = snapshot.histograms[i].second;
    out << "\n    " << json_string(snapshot.histograms[i].first)
        << ": {\"bounds\": [";
    for (std::size_t b = 0; b < hist.bounds().size(); ++b) {
      if (b > 0) out << ", ";
      out << hist.bounds()[b];
    }
    out << "], \"counts\": [";
    for (std::size_t b = 0; b < hist.counts().size(); ++b) {
      if (b > 0) out << ", ";
      out << hist.counts()[b];
    }
    out << "]}";
  }
  out << "\n  }\n}\n";
  return out.str();
}

Status write_metrics_file(const MetricsSnapshot& snapshot,
                          const std::string& path) {
  return io::write_file_atomic(path, metrics_to_json(snapshot));
}

Status write_trace_file(std::span<const TraceEvent> events,
                        const std::string& path) {
  std::ostringstream out;
  write_chrome_trace(events, out);
  return io::write_file_atomic(path, out.str());
}

std::string key_index(std::size_t index) {
  std::array<char, 32> buf{};
  std::snprintf(buf.data(), buf.size(), "%06zu", index);
  return std::string(buf.data());
}

}  // namespace tbp::obs
