#include "stats/rng.hpp"

#include <cassert>
#include <cmath>
#include <numbers>

namespace tbp::stats {
namespace {

[[nodiscard]] constexpr std::uint64_t rotl(std::uint64_t x, int k) noexcept {
  return (x << k) | (x >> (64 - k));
}

}  // namespace

Rng::Rng(std::uint64_t seed) noexcept {
  std::uint64_t sm = seed;
  for (auto& word : s_) word = splitmix64(sm);
  // xoshiro must not start from the all-zero state; SplitMix64 cannot emit
  // four consecutive zeros, so the state is already valid.
}

Rng Rng::substream(std::uint64_t tag) const noexcept {
  // Mix the current state with the tag through SplitMix64 so substreams of
  // the same parent with different tags do not overlap.
  std::uint64_t sm = s_[0] ^ rotl(s_[1], 17) ^ (tag * 0x9e3779b97f4a7c15ULL);
  return Rng{splitmix64(sm)};
}

std::uint64_t Rng::next() noexcept {
  const std::uint64_t result = rotl(s_[1] * 5, 7) * 9;
  const std::uint64_t t = s_[1] << 17;
  s_[2] ^= s_[0];
  s_[3] ^= s_[1];
  s_[1] ^= s_[2];
  s_[0] ^= s_[3];
  s_[2] ^= t;
  s_[3] = rotl(s_[3], 45);
  return result;
}

double Rng::uniform() noexcept {
  // 53 random bits -> double in [0, 1).
  return static_cast<double>(next() >> 11) * 0x1.0p-53;
}

double Rng::uniform(double lo, double hi) noexcept {
  return lo + (hi - lo) * uniform();
}

std::uint64_t Rng::below(std::uint64_t bound) noexcept {
  if (bound == 0) return 0;
  // Lemire's nearly-divisionless unbiased bounded generation.
  std::uint64_t x = next();
  __uint128_t m = static_cast<__uint128_t>(x) * bound;
  auto lo = static_cast<std::uint64_t>(m);
  if (lo < bound) {
    const std::uint64_t threshold = (0 - bound) % bound;
    while (lo < threshold) {
      x = next();
      m = static_cast<__uint128_t>(x) * bound;
      lo = static_cast<std::uint64_t>(m);
    }
  }
  return static_cast<std::uint64_t>(m >> 64);
}

std::int64_t Rng::range(std::int64_t lo, std::int64_t hi) noexcept {
  assert(lo <= hi && "Rng::range precondition: lo <= hi");
  if (lo > hi) return lo;  // NDEBUG fallback: degenerate but deterministic
  // Subtract in uint64 space: hi - lo in int64 overflows (UB) whenever the
  // span exceeds INT64_MAX; the unsigned difference is well-defined modular
  // arithmetic and equals the true span for every lo <= hi.
  const std::uint64_t span =
      static_cast<std::uint64_t>(hi) - static_cast<std::uint64_t>(lo) + 1;
  // span wraps to 0 exactly when [lo, hi] covers all 2^64 values; below(0)
  // would return 0 (always yielding lo), so draw a full word instead.
  if (span == 0) return static_cast<std::int64_t>(next());
  // Add in uint64 space too: lo + offset can exceed INT64_MAX in int64
  // arithmetic (UB) even though the true sum lies in [lo, hi].
  return static_cast<std::int64_t>(static_cast<std::uint64_t>(lo) +
                                   below(span));
}

double Rng::gaussian() noexcept {
  if (has_cached_gaussian_) {
    has_cached_gaussian_ = false;
    return cached_gaussian_;
  }
  // Box-Muller; u1 is nudged away from zero so std::log stays finite.
  double u1 = uniform();
  if (u1 < 1e-300) u1 = 1e-300;
  const double u2 = uniform();
  const double radius = std::sqrt(-2.0 * std::log(u1));
  const double angle = 2.0 * std::numbers::pi * u2;
  cached_gaussian_ = radius * std::sin(angle);
  has_cached_gaussian_ = true;
  return radius * std::cos(angle);
}

double Rng::gaussian(double mean, double stddev) noexcept {
  return mean + stddev * gaussian();
}

bool Rng::bernoulli(double p) noexcept { return uniform() < p; }

}  // namespace tbp::stats
