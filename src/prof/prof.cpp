#include "prof/prof.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstddef>
#include <vector>

#include "support/walltime.hpp"

namespace tbp::prof {
namespace {

// 1us .. 2^26us (~67s): service requests, GC passes and whole-launch spans
// all land inside; anything slower saturates into the overflow bucket.
constexpr std::size_t kLatencyBuckets = 27;

constexpr std::array<std::uint64_t, kLatencyBuckets> make_latency_bounds() {
  std::array<std::uint64_t, kLatencyBuckets> bounds{};
  std::uint64_t bound = 1;
  for (std::size_t i = 0; i < bounds.size(); ++i) {
    bounds[i] = bound;
    bound *= 2;
  }
  return bounds;
}

constexpr std::array<std::uint64_t, kLatencyBuckets> kLatencyBounds =
    make_latency_bounds();

// Saturating seconds -> microseconds for histogram recording.
std::uint64_t micros_from_seconds(double seconds) noexcept {
  if (!(seconds > 0.0)) return 0;
  const double us = seconds * 1e6;
  if (us >= 1.8e19) return ~std::uint64_t{0};
  return static_cast<std::uint64_t>(us);
}

}  // namespace

std::span<const std::uint64_t> latency_bounds() noexcept {
  return kLatencyBounds;
}

std::uint64_t percentile_upper_bound(const obs::Histogram& hist,
                                     double q) noexcept {
  const std::uint64_t total = hist.total();
  if (total == 0 || hist.bounds().empty()) return 0;
  const double clamped = std::clamp(q, 0.0, 1.0);
  const auto need = static_cast<std::uint64_t>(
      std::ceil(clamped * static_cast<double>(total)));
  const std::uint64_t target = need == 0 ? 1 : need;
  std::uint64_t seen = 0;
  const auto bounds = hist.bounds();
  const auto counts = hist.counts();
  for (std::size_t i = 0; i < bounds.size(); ++i) {
    seen += counts[i];
    if (seen >= target) return bounds[i];
  }
  // Overflow bucket: saturate to the last finite bound.
  return bounds[bounds.size() - 1];
}

void ProfSession::record_span(std::string_view name,
                              double duration_seconds) {
  const double clamped = std::max(0.0, duration_seconds);
  const auto spans = spans_.lock();
  SpanStats& stats = (*spans)[std::string(name)];
  if (stats.latency_us.bounds().empty()) {
    stats.latency_us = obs::Histogram(
        std::vector<std::uint64_t>(kLatencyBounds.begin(), kLatencyBounds.end()));
  }
  stats.latency_us.record(micros_from_seconds(clamped));
  stats.total_seconds += clamped;
  stats.count += 1;
}

std::map<std::string, ProfSession::SpanStats> ProfSession::span_snapshot()
    const {
  const auto spans = spans_.lock();
  return *spans;
}

ScopedSpan::ScopedSpan(ProfSession* session, std::string_view name)
    : session_(session), name_(name), start_(0.0) {
  if (session_ != nullptr) start_ = timing::monotonic_seconds();
}

void ScopedSpan::finish() {
  if (session_ == nullptr) return;
  session_->record_span(name_, timing::monotonic_seconds() - start_);
  session_ = nullptr;
}

}  // namespace tbp::prof
