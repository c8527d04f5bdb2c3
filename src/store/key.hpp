// Content-addressed store keys.
//
// A StoreKey names one immutable result in a ContentStore: `id` is a
// 128-bit hash (32 lowercase hex chars) over everything that determines the
// entry's bytes — the entry kind, the codec version of the payload, and a
// canonical dump of the inputs — so any input or format change addresses a
// different entry instead of silently aliasing a stale one.  `label` is a
// short human-readable tag (the experiment key, a request summary)
// carried alongside the hash for index listings and diagnostics; it never
// participates in addressing.
//
// Key derivation is part of the on-disk contract: the same (kind, version,
// canonical) triple must hash to the same id forever, or every deployed
// store goes cold.  tests/store/store_test.cpp pins literal ids.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

namespace tbp::store {

struct StoreKey {
  std::string id;     ///< 32 lowercase hex chars (see valid_key_id)
  std::string label;  ///< diagnostic tag, [-._:A-Za-z0-9] only
};

/// Incremental 128-bit FNV-1a variant: two independent 64-bit streams with
/// distinct offset bases, each field delimited so ("ab","c") and ("a","bc")
/// hash differently.  Stability contract: never change the constants or the
/// delimiting scheme (see the header comment).
class KeyHasher {
 public:
  /// Mixes one field (its length, then its bytes) into both streams.
  KeyHasher& field(std::string_view text) noexcept;
  /// Convenience for numeric fields: mixes the decimal rendering.
  KeyHasher& field_u64(std::uint64_t value);

  /// 32 lowercase hex chars (hi stream then lo stream).
  [[nodiscard]] std::string hex() const;

 private:
  std::uint64_t hi_ = 0xcbf29ce484222325ULL;  // FNV-1a 64 offset basis
  std::uint64_t lo_ = 0x2d358dccaa6c78a5ULL;  // splitmix64(offset basis)
};

/// The store-wide code-version tag mixed into every key: bump it to
/// invalidate every entry at once (a format epoch, not a per-codec tag —
/// codecs pass their own version string to make_key).
inline constexpr std::string_view kStoreEpoch = "tbp-store-epoch-1";

/// Derives the key for one entry: id = H(epoch, kind, codec_version,
/// canonical).  `label` is carried through verbatim (sanitized by the
/// store's put-time validation, not here).
[[nodiscard]] StoreKey make_key(std::string_view kind,
                                std::string_view codec_version,
                                std::string_view canonical,
                                std::string_view label);

/// True for exactly 32 lowercase hex chars.
[[nodiscard]] bool valid_key_id(std::string_view id) noexcept;

/// True for non-empty labels of [-._:A-Za-z0-9] only (they appear on index
/// journal lines, so whitespace and path separators are excluded).
[[nodiscard]] bool valid_label(std::string_view label) noexcept;

}  // namespace tbp::store
