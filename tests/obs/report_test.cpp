// The deterministic JSON layer behind manifests: canonical serialization,
// strict parsing, and the CRC seal's corruption detection.
#include "obs/report.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <string>

#include "support/checksum.hpp"

namespace tbp::obs {
namespace {

JsonValue sample_body() {
  JsonValue body = JsonValue::object();
  body.set("zeta", 1.5);
  body.set("alpha", std::uint64_t{42});
  body.set("name", "tbp");
  JsonValue arr = JsonValue::array();
  arr.items().push_back(JsonValue(true));
  arr.items().push_back(JsonValue(nullptr));
  arr.items().push_back(JsonValue(std::int64_t{-7}));
  body.set("list", std::move(arr));
  JsonValue nested = JsonValue::object();
  nested.set("wall_seconds", 0.125);
  body.set("inner", std::move(nested));
  return body;
}

TEST(JsonTest, SerializeSortsKeysAndOmitsWhitespace) {
  EXPECT_EQ(json_serialize(sample_body()),
            "{\"alpha\":42,\"inner\":{\"wall_seconds\":0.125},"
            "\"list\":[true,null,-7],\"name\":\"tbp\",\"zeta\":1.5}");
}

TEST(JsonTest, ParseSerializeIsIdentityOnCanonicalText) {
  const std::string canonical = json_serialize(sample_body());
  Result<JsonValue> parsed = json_parse(canonical);
  ASSERT_TRUE(parsed.ok()) << parsed.status().to_string();
  EXPECT_EQ(json_serialize(*parsed), canonical);
}

TEST(JsonTest, DoublesRoundTripBitExactly) {
  for (const double d : {0.1, 1.0 / 3.0, 1e-30, 6.02214076e23, 12345.678,
                         -0.0078125, 2.0}) {
    JsonValue v(d);
    const std::string text = json_serialize(v);
    Result<JsonValue> parsed = json_parse(text);
    ASSERT_TRUE(parsed.ok()) << text;
    EXPECT_EQ(parsed->as_double(), d) << text;
    // Re-serializing the parsed value reproduces the bytes (what the CRC
    // seal relies on).
    EXPECT_EQ(json_serialize(*parsed), text);
  }
}

TEST(JsonTest, NonFiniteDoublesSerializeAsNull) {
  EXPECT_EQ(json_serialize(JsonValue(std::nan(""))), "null");
}

TEST(JsonTest, NegativeZeroIsCanonicalizedToZero) {
  // "-0" would reparse as integer 0 and change the serialized bytes, which
  // the CRC seal cannot tolerate (signed error components hit -0.0 easily).
  EXPECT_EQ(json_serialize(JsonValue(-0.0)), "0");
  JsonValue body = JsonValue::object();
  body.set("warmup_pct", -0.0);
  const std::string sealed = json_serialize(seal_json("tbp-test-v1", body));
  EXPECT_TRUE(open_json(sealed, "tbp-test-v1").ok());
}

TEST(JsonTest, StringEscapesRoundTrip) {
  const std::string awkward = "a\"b\\c\nd\te\x01f";
  JsonValue v(awkward);
  Result<JsonValue> parsed = json_parse(json_serialize(v));
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->as_string(), awkward);
}

TEST(JsonTest, ParserHandlesUnicodeEscapes) {
  Result<JsonValue> parsed = json_parse("\"\\u0041\\u00e9\\ud83d\\ude00\"");
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->as_string(), "A\xC3\xA9\xF0\x9F\x98\x80");
  EXPECT_FALSE(json_parse("\"\\ud83d\"").ok());  // unpaired surrogate
}

TEST(JsonTest, ParserRejectsMalformedInput) {
  EXPECT_FALSE(json_parse("").ok());
  EXPECT_FALSE(json_parse("{\"a\":1,}").ok());
  EXPECT_FALSE(json_parse("[1 2]").ok());
  EXPECT_FALSE(json_parse("{\"a\":1} garbage").ok());
  EXPECT_FALSE(json_parse("\"unterminated").ok());
  EXPECT_FALSE(json_parse("01e").ok());
  std::string deep;
  for (int i = 0; i < 200; ++i) deep += "[";
  EXPECT_FALSE(json_parse(deep).ok());
}

TEST(JsonTest, IntegersKeepFullPrecision) {
  const std::uint64_t big = 18446744073709551615ull;  // > 2^53
  Result<JsonValue> parsed = json_parse(json_serialize(JsonValue(big)));
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->as_u64(), big);
  Result<JsonValue> negative = json_parse("-9007199254740995");
  ASSERT_TRUE(negative.ok());
  EXPECT_EQ(json_serialize(*negative), "-9007199254740995");
}

TEST(SealTest, SealOpenRoundTrips) {
  const JsonValue sealed = seal_json(kManifestSchema, sample_body());
  const std::string text = json_serialize_pretty(sealed);
  Result<JsonValue> body = open_json(text, kManifestSchema);
  ASSERT_TRUE(body.ok()) << body.status().to_string();
  EXPECT_EQ(json_serialize(*body), json_serialize(sample_body()));
}

TEST(SealTest, WrongSchemaIsVersionMismatch) {
  const std::string text =
      json_serialize(seal_json(kManifestSchema, sample_body()));
  Result<JsonValue> body = open_json(text, kBenchPerfSchema);
  ASSERT_FALSE(body.ok());
  EXPECT_EQ(body.status().code(), StatusCode::kVersionMismatch);
}

TEST(SealTest, BitFlipInBodyIsCorrupt) {
  std::string text = json_serialize(seal_json(kManifestSchema, sample_body()));
  const std::size_t digit = text.find("42");
  ASSERT_NE(digit, std::string::npos);
  text[digit] = '9';
  Result<JsonValue> body = open_json(text, kManifestSchema);
  ASSERT_FALSE(body.ok());
  EXPECT_EQ(body.status().code(), StatusCode::kCorrupt);
}

TEST(SealTest, TruncationIsCorrupt) {
  const std::string text =
      json_serialize(seal_json(kManifestSchema, sample_body()));
  for (const std::size_t keep : {text.size() / 2, text.size() - 1}) {
    Result<JsonValue> body = open_json(text.substr(0, keep), kManifestSchema);
    ASSERT_FALSE(body.ok()) << keep;
    EXPECT_EQ(body.status().code(), StatusCode::kCorrupt) << keep;
  }
}

TEST(SealTest, MissingEnvelopeMembersAreCorrupt) {
  Result<JsonValue> body = open_json("{\"schema\":\"tbp-manifest-v1\"}",
                                     kManifestSchema);
  ASSERT_FALSE(body.ok());
  EXPECT_EQ(body.status().code(), StatusCode::kCorrupt);
}

TEST(SealTest, PrettyAndCompactSealValidateIdentically) {
  // The CRC is over the canonical (compact) body serialization, so the
  // pretty-printed file validates too: parse -> re-serialize is canonical.
  const JsonValue sealed = seal_json(kBenchPerfSchema, sample_body());
  EXPECT_TRUE(open_json(json_serialize(sealed), kBenchPerfSchema).ok());
  EXPECT_TRUE(open_json(json_serialize_pretty(sealed), kBenchPerfSchema).ok());
}

TEST(MetricsToValueTest, MirrorsSnapshotSorted) {
  MetricsShard shard;
  shard.add("b.two", 2);
  shard.add("a.one", 1);
  MetricsSnapshot snapshot;
  snapshot.absorb(shard);
  const JsonValue v = metrics_to_value(snapshot);
  EXPECT_EQ(json_serialize(v),
            "{\"counters\":{\"a.one\":1,\"b.two\":2},\"histograms\":{}}");
}

}  // namespace
}  // namespace tbp::obs
