// Unit tests for the chrome://tracing exporter: JSON literal rendering
// (escaping happens exactly once, at argument-build time), buffer event
// construction, and the shape of the emitted document.
#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>
#include <string>

#include "obs/trace_event.hpp"

namespace tbp::obs {
namespace {

TEST(JsonLiteralTest, Numbers) {
  EXPECT_EQ(json_number(std::uint64_t{0}), "0");
  EXPECT_EQ(json_number(std::uint64_t{18446744073709551615u}),
            "18446744073709551615");
  // Doubles render round-trippably; spot-check a simple value.
  const std::string half = json_number(0.5);
  EXPECT_EQ(std::stod(half), 0.5);
}

TEST(JsonLiteralTest, StringEscaping) {
  EXPECT_EQ(json_string("plain"), "\"plain\"");
  EXPECT_EQ(json_string("say \"hi\""), "\"say \\\"hi\\\"\"");
  EXPECT_EQ(json_string("a\\b"), "\"a\\\\b\"");
  EXPECT_EQ(json_string("line\nbreak"), "\"line\\nbreak\"");
  EXPECT_EQ(json_string("tab\there"), "\"tab\\there\"");
  // Control characters below 0x20 must be escaped (\u00XX form), never
  // emitted raw — raw control bytes make the document invalid JSON.
  const std::string ctl = json_string(std::string("x\x01y", 3));
  EXPECT_EQ(ctl.find('\x01'), std::string::npos);
  EXPECT_NE(ctl.find("\\u0001"), std::string::npos);
}

TEST(TraceBufferTest, BuildsEventKinds) {
  TraceBuffer buffer;
  buffer.thread_name(2, "SM 2");
  buffer.complete("TB 5", "tb", 2, 100, 40,
                  {{"block", json_number(std::uint64_t{5})}});
  buffer.instant("fixed-unit 0", "unit", 3, 140);

  ASSERT_EQ(buffer.events().size(), 3u);
  EXPECT_FALSE(buffer.empty());

  const TraceEvent& meta = buffer.events()[0];
  EXPECT_EQ(meta.ph, 'M');
  EXPECT_EQ(meta.name, "thread_name");
  EXPECT_EQ(meta.tid, 2u);

  const TraceEvent& span = buffer.events()[1];
  EXPECT_EQ(span.ph, 'X');
  EXPECT_EQ(span.name, "TB 5");
  EXPECT_EQ(span.cat, "tb");
  EXPECT_EQ(span.tid, 2u);
  EXPECT_EQ(span.ts, 100u);
  EXPECT_EQ(span.dur, 40u);
  ASSERT_EQ(span.args.size(), 1u);
  EXPECT_EQ(span.args[0].first, "block");
  EXPECT_EQ(span.args[0].second, "5");

  const TraceEvent& mark = buffer.events()[2];
  EXPECT_EQ(mark.ph, 'i');
  EXPECT_EQ(mark.ts, 140u);
}

TEST(ChromeTraceTest, DocumentShape) {
  TraceBuffer buffer;
  buffer.thread_name(0, "SM 0");
  buffer.complete("TB \"0\"", "tb", 0, 10, 5);
  buffer.instant("fixed-unit 0", "unit", 4, 15);

  std::ostringstream out;
  write_chrome_trace(buffer.events(), out);
  const std::string doc = out.str();

  // Top-level JSON object with the traceEvents array the viewers expect.
  EXPECT_EQ(doc.rfind("{\"traceEvents\":[", 0), 0u);
  EXPECT_EQ(doc.back(), '\n');
  // Every event kind made it through, and the complete event carries dur.
  EXPECT_NE(doc.find("\"ph\":\"M\""), std::string::npos);
  EXPECT_NE(doc.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(doc.find("\"ph\":\"i\""), std::string::npos);
  EXPECT_NE(doc.find("\"dur\":5"), std::string::npos);
  // The quoted name was escaped exactly once.
  EXPECT_NE(doc.find("TB \\\"0\\\""), std::string::npos);
  EXPECT_EQ(doc.find("TB \"0\""), std::string::npos);

  // Balanced brackets is a cheap proxy for well-formedness given the repo
  // has no JSON parser to round-trip through.
  std::ptrdiff_t braces = 0;
  std::ptrdiff_t brackets = 0;
  bool in_string = false;
  for (std::size_t i = 0; i < doc.size(); ++i) {
    const char c = doc[i];
    if (in_string) {
      if (c == '\\') {
        ++i;  // skip the escaped character
      } else if (c == '"') {
        in_string = false;
      }
      continue;
    }
    if (c == '"') in_string = true;
    if (c == '{') ++braces;
    if (c == '}') --braces;
    if (c == '[') ++brackets;
    if (c == ']') --brackets;
  }
  EXPECT_FALSE(in_string);
  EXPECT_EQ(braces, 0);
  EXPECT_EQ(brackets, 0);
}

TEST(ChromeTraceTest, EmptyEventListIsStillADocument) {
  std::ostringstream out;
  write_chrome_trace({}, out);
  const std::string doc = out.str();
  EXPECT_EQ(doc.rfind("{\"traceEvents\":[", 0), 0u);
  EXPECT_NE(doc.find("]"), std::string::npos);
  EXPECT_EQ(doc.find("\"ph\""), std::string::npos);  // no events
}

}  // namespace
}  // namespace tbp::obs
