// Deterministic corruption injection for artifact robustness tests.
//
// The readers of sealed files — the cached experiment row (harness/cache,
// stored as a store entry) and the run manifests tbp-report renders —
// promise a structured error (never a crash, hang, or unbounded
// allocation) on any malformed input.
// That promise is only worth something if it is exercised, so this header
// provides the three corruption primitives the fault tests drive —
// truncation, bit flips, and cross-artifact splices — plus a generator
// that expands one well-formed payload into a reproducible suite of
// corrupted variants.  Everything is pure and seeded: the same payload and
// seed always produce byte-identical corruptions, so a failing variant can
// be replayed by name.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace tbp::harness {

/// Drops every byte from `offset` onward (a torn write / short download).
/// Offsets past the end return the payload unchanged.
[[nodiscard]] std::string truncate_at(const std::string& payload,
                                      std::size_t offset);

/// Flips one bit: bit `bit_index % 8` of byte `bit_index / 8` (single-event
/// upset / disk rot).  Bit indices past the end wrap around, so any index
/// is valid for a non-empty payload.
[[nodiscard]] std::string flip_bit(const std::string& payload,
                                   std::size_t bit_index);

/// Replaces the tail of `payload` from `offset` with the tail of `donor`
/// from the same offset (two artifacts interleaved by a concurrent writer
/// without atomic rename).  If `offset` is past either end the shorter
/// range applies.
[[nodiscard]] std::string splice(const std::string& payload,
                                 const std::string& donor, std::size_t offset);

/// One corrupted variant of a payload, named for test diagnostics
/// (e.g. "truncate@117", "bitflip@901", "splice@42").
struct Corruption {
  std::string name;
  std::string payload;
};

/// Expands a well-formed payload into a deterministic suite of corrupted
/// variants: systematic truncations (empty, header, mid-body, last byte),
/// seeded random truncations and bit flips spread over the whole payload,
/// and splices against `donor` when one is supplied.  The same
/// (payload, donor, seed) always yields the same suite.
[[nodiscard]] std::vector<Corruption> corruption_suite(
    const std::string& payload, const std::string& donor = {},
    std::uint64_t seed = 0x7b90147);

}  // namespace tbp::harness
