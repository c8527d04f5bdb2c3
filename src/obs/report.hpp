// Run manifests and the deterministic JSON layer behind them.
//
// A manifest is the machine-readable record of one run: the configuration
// that produced it, the artifact checksums it read and wrote, a metrics
// snapshot, and the accuracy attribution.  Manifests are compared byte for
// byte across --jobs values and archived by CI, so everything here is built
// around one property: equal data serializes to equal bytes.
//
//  - Objects keep their keys in sorted order (std::map), arrays keep
//    insertion order, and the serializer emits no incidental whitespace.
//  - Doubles render as the shortest decimal string that parses back to the
//    identical bit pattern (try %.15g, %.16g, %.17g); integers render as
//    plain decimals.  Non-finite doubles have no JSON spelling and are
//    emitted as null.
//  - Sealing wraps a body as {"body":...,"crc32":"<8hex>","schema":"..."}
//    where the CRC is taken over the canonical serialization of the body.
//    The file stays plain JSON — CI tooling can json.load it — while
//    truncation and bit rot are still detected: validation re-serializes
//    the parsed body and compares checksums, so a torn file fails to parse
//    and a flipped bit fails the CRC.
//
// This layer is pure data handling: no clocks, no recording overhead.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <variant>
#include <vector>

#include "obs/metrics.hpp"
#include "support/status.hpp"

namespace tbp::obs {

/// Schema tags for the sealed documents this project writes.
inline constexpr std::string_view kManifestSchema = "tbp-manifest-v1";
inline constexpr std::string_view kBenchPerfSchema = "tbp-bench-perf-v1";

/// A JSON document: null, bool, integer (signed or unsigned), double,
/// string, array, or object with sorted keys.
class JsonValue {
 public:
  using Array = std::vector<JsonValue>;
  using Object = std::map<std::string, JsonValue>;

  JsonValue() noexcept : v_(nullptr) {}
  /*implicit*/ JsonValue(std::nullptr_t) noexcept : v_(nullptr) {}
  /*implicit*/ JsonValue(bool b) noexcept : v_(b) {}
  /*implicit*/ JsonValue(std::uint64_t u) noexcept : v_(u) {}
  /*implicit*/ JsonValue(std::int64_t i) noexcept : v_(i) {}
  /*implicit*/ JsonValue(int i) noexcept : v_(static_cast<std::int64_t>(i)) {}
  /*implicit*/ JsonValue(double d) noexcept : v_(d) {}
  /*implicit*/ JsonValue(std::string s) : v_(std::move(s)) {}
  /*implicit*/ JsonValue(std::string_view s) : v_(std::string(s)) {}
  /*implicit*/ JsonValue(const char* s) : v_(std::string(s)) {}
  /*implicit*/ JsonValue(Array a) : v_(std::move(a)) {}
  /*implicit*/ JsonValue(Object o) : v_(std::move(o)) {}

  [[nodiscard]] static JsonValue object() { return JsonValue(Object{}); }
  [[nodiscard]] static JsonValue array() { return JsonValue(Array{}); }

  [[nodiscard]] bool is_null() const noexcept {
    return std::holds_alternative<std::nullptr_t>(v_);
  }
  [[nodiscard]] bool is_bool() const noexcept {
    return std::holds_alternative<bool>(v_);
  }
  [[nodiscard]] bool is_number() const noexcept {
    return std::holds_alternative<std::uint64_t>(v_) ||
           std::holds_alternative<std::int64_t>(v_) ||
           std::holds_alternative<double>(v_);
  }
  [[nodiscard]] bool is_string() const noexcept {
    return std::holds_alternative<std::string>(v_);
  }
  [[nodiscard]] bool is_array() const noexcept {
    return std::holds_alternative<Array>(v_);
  }
  [[nodiscard]] bool is_object() const noexcept {
    return std::holds_alternative<Object>(v_);
  }

  [[nodiscard]] bool as_bool() const noexcept {
    const bool* b = std::get_if<bool>(&v_);
    return b != nullptr && *b;
  }
  /// Any numeric alternative, widened to double; 0.0 otherwise.
  [[nodiscard]] double as_double() const noexcept;
  /// Unsigned view of a numeric value; 0 for negatives and non-numbers.
  [[nodiscard]] std::uint64_t as_u64() const noexcept;
  [[nodiscard]] const std::string& as_string() const noexcept;

  /// Mutable accessors; assert on type mismatch (internal builder misuse).
  [[nodiscard]] Array& items();
  [[nodiscard]] Object& members();
  [[nodiscard]] const Array& items() const;
  [[nodiscard]] const Object& members() const;

  /// Member lookup on an object; null for missing keys / non-objects.
  [[nodiscard]] const JsonValue* find(std::string_view key) const noexcept;
  /// Insert-or-assign on an object (asserting this is one).
  void set(std::string_view key, JsonValue value);

  /// Visits the stored alternative (serializer backdoor; the variant's
  /// alternative matters there, where as_double would flatten it).
  template <typename F>
  decltype(auto) visit(F&& f) const {
    return std::visit(std::forward<F>(f), v_);
  }

 private:
  std::variant<std::nullptr_t, bool, std::uint64_t, std::int64_t, double,
               std::string, Array, Object>
      v_;
};

/// Canonical serialization: sorted keys, no whitespace, shortest
/// round-tripping doubles.  Equal trees produce equal bytes.
[[nodiscard]] std::string json_serialize(const JsonValue& value);

/// Same document with two-space indentation, for human consumption
/// (tbp-report show, committed baselines).  Still fully deterministic.
[[nodiscard]] std::string json_serialize_pretty(const JsonValue& value);

/// Strict parser for the subset json_serialize emits (which is a strict
/// subset of RFC 8259): no trailing commas, no comments, double-quoted
/// strings with the standard escapes, nesting capped at a fixed depth.
/// Trailing whitespace is allowed; trailing garbage is kCorrupt.
[[nodiscard]] Result<JsonValue> json_parse(std::string_view text);

/// Wraps `body` as {"body":body,"crc32":"<8 hex>","schema":schema}, the
/// CRC taken over json_serialize(body).
[[nodiscard]] JsonValue seal_json(std::string_view schema, JsonValue body);

/// Parses a sealed document and returns its body.  kCorrupt on a parse
/// failure, a malformed envelope or a checksum mismatch; kVersionMismatch
/// when the schema tag is not `expected_schema`.
[[nodiscard]] Result<JsonValue> open_json(std::string_view text,
                                          std::string_view expected_schema);

/// Atomic write of json_serialize_pretty(value) + '\n' to `path`.
[[nodiscard]] Status write_json_file(const JsonValue& value,
                                     const std::string& path);

/// read_file_limited + open_json.
[[nodiscard]] Result<JsonValue> load_sealed_file(
    const std::string& path, std::string_view expected_schema);

/// A snapshot as a JSON tree: {"counters":{...},"histograms":{name:
/// {"bounds":[...],"counts":[...]}}} — the same shape metrics_to_json
/// renders, embeddable in a manifest body.
[[nodiscard]] JsonValue metrics_to_value(const MetricsSnapshot& snapshot);

}  // namespace tbp::obs
