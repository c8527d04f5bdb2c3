#include "sim/cache.hpp"

#include <cassert>

namespace tbp::sim {
namespace {

[[nodiscard]] constexpr bool is_power_of_two(std::uint32_t x) noexcept {
  return x != 0 && (x & (x - 1)) == 0;
}

}  // namespace

SetAssocCache::SetAssocCache(const CacheGeometry& geometry)
    : n_sets_(geometry.n_sets()), associativity_(geometry.associativity) {
  assert(is_power_of_two(n_sets_));
  ways_.resize(std::size_t{n_sets_} * associativity_);
}

bool SetAssocCache::access(std::uint64_t line) noexcept {
  Way* set = &ways_[std::size_t{set_of(line)} * associativity_];
  for (std::uint32_t w = 0; w < associativity_; ++w) {
    if (set[w].valid && set[w].tag == line) {
      set[w].last_use = ++use_clock_;
      ++stats_.hits;
      return true;
    }
  }
  ++stats_.misses;
  return false;
}

bool SetAssocCache::contains(std::uint64_t line) const noexcept {
  const Way* set = &ways_[std::size_t{set_of(line)} * associativity_];
  for (std::uint32_t w = 0; w < associativity_; ++w) {
    if (set[w].valid && set[w].tag == line) return true;
  }
  return false;
}

std::optional<std::uint64_t> SetAssocCache::fill(std::uint64_t line) noexcept {
  Way* set = &ways_[std::size_t{set_of(line)} * associativity_];
  Way* victim = set;
  for (std::uint32_t w = 0; w < associativity_; ++w) {
    if (set[w].valid && set[w].tag == line) {
      set[w].last_use = ++use_clock_;  // already present (race with a fill)
      return std::nullopt;
    }
    if (!set[w].valid) {
      victim = &set[w];
      break;
    }
    if (set[w].last_use < victim->last_use) victim = &set[w];
  }
  std::optional<std::uint64_t> evicted;
  if (victim->valid) {
    ++stats_.evictions;
    evicted = victim->tag;
  }
  victim->valid = true;
  victim->tag = line;
  victim->last_use = ++use_clock_;
  return evicted;
}

}  // namespace tbp::sim
