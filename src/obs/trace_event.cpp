#include "obs/trace_event.hpp"

#include <array>
#include <cmath>
#include <cstdio>
#include <ostream>

namespace tbp::obs {

std::string json_number(std::uint64_t value) { return std::to_string(value); }

std::string json_number(double value) {
  if (!std::isfinite(value)) return "0";  // JSON has no NaN/Inf
  std::array<char, 64> buf{};
  const int n = std::snprintf(buf.data(), buf.size(), "%.6g", value);
  return std::string(buf.data(), static_cast<std::size_t>(n > 0 ? n : 0));
}

std::string json_string(std::string_view text) {
  std::string out = "\"";
  for (const char c : text) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          std::array<char, 8> buf{};
          std::snprintf(buf.data(), buf.size(), "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += buf.data();
        } else {
          out += c;
        }
    }
  }
  out += '"';
  return out;
}

void TraceBuffer::complete(std::string_view name, std::string_view cat,
                           std::uint32_t tid, std::uint64_t ts, std::uint64_t dur,
                           std::vector<std::pair<std::string, std::string>> args) {
  events_.push_back(TraceEvent{.name = std::string(name),
                               .cat = std::string(cat),
                               .ph = 'X',
                               .tid = tid,
                               .ts = ts,
                               .dur = dur,
                               .args = std::move(args)});
}

void TraceBuffer::instant(std::string_view name, std::string_view cat,
                          std::uint32_t tid, std::uint64_t ts,
                          std::vector<std::pair<std::string, std::string>> args) {
  events_.push_back(TraceEvent{.name = std::string(name),
                               .cat = std::string(cat),
                               .ph = 'i',
                               .tid = tid,
                               .ts = ts,
                               .dur = 0,
                               .args = std::move(args)});
}

void TraceBuffer::thread_name(std::uint32_t tid, std::string_view name) {
  events_.push_back(TraceEvent{.name = "thread_name",
                               .cat = "__metadata",
                               .ph = 'M',
                               .tid = tid,
                               .ts = 0,
                               .dur = 0,
                               .args = {{"name", json_string(name)}}});
}

void write_chrome_trace(std::span<const TraceEvent> events, std::ostream& out) {
  out << "{\"traceEvents\":[";
  bool first = true;
  for (const TraceEvent& e : events) {
    if (!first) out << ",";
    first = false;
    out << "\n{\"name\":" << json_string(e.name)
        << ",\"cat\":" << json_string(e.cat) << ",\"ph\":\"" << e.ph
        << "\",\"pid\":" << e.pid << ",\"tid\":" << e.tid << ",\"ts\":" << e.ts;
    if (e.ph == 'X') out << ",\"dur\":" << e.dur;
    if (e.ph == 'i') out << ",\"s\":\"t\"";
    if (!e.args.empty()) {
      out << ",\"args\":{";
      for (std::size_t i = 0; i < e.args.size(); ++i) {
        if (i > 0) out << ",";
        out << json_string(e.args[i].first) << ":" << e.args[i].second;
      }
      out << "}";
    }
    out << "}";
  }
  out << "\n],\"displayTimeUnit\":\"ms\","
         "\"otherData\":{\"clock\":\"1 ts = 1 GPU cycle\"}}\n";
}

}  // namespace tbp::obs
