// The wall-clock doorway's contract: monotonic_seconds never runs
// backwards, WallTimer's elapsed reading is non-negative and monotone, and
// restart() rewinds the stopwatch.  These are the only properties the
// profiling layer relies on — everything downstream (spans, latency
// histograms) is differences of these readings.
#include <gtest/gtest.h>

#include "support/walltime.hpp"

namespace tbp::timing {
namespace {

TEST(WalltimeTest, MonotonicSecondsNeverDecreases) {
  double prev = monotonic_seconds();
  for (int i = 0; i < 10000; ++i) {
    const double now = monotonic_seconds();
    ASSERT_GE(now, prev) << "clock ran backwards on read " << i;
    prev = now;
  }
}

TEST(WalltimeTest, TimerElapsedIsNonNegativeAndMonotone) {
  WallTimer timer;
  double prev = timer.seconds();
  EXPECT_GE(prev, 0.0);
  for (int i = 0; i < 1000; ++i) {
    const double now = timer.seconds();
    ASSERT_GE(now, prev) << "elapsed time shrank on read " << i;
    prev = now;
  }
}

TEST(WalltimeTest, RestartRewindsTheStopwatch) {
  WallTimer timer;
  // Burn a little real time so the pre-restart reading is visibly ahead.
  volatile double sink = 0.0;
  for (int i = 0; i < 200000; ++i) sink = sink + 1.0;
  const double before = timer.seconds();
  timer.restart();
  const double after = timer.seconds();
  EXPECT_GE(after, 0.0);
  EXPECT_LE(after, before)
      << "restart() must reset the epoch to now, not keep the old one";
}

TEST(WalltimeTest, TimerMeasuresRealElapsedTime) {
  const double t0 = monotonic_seconds();
  WallTimer timer;
  volatile double sink = 0.0;
  for (int i = 0; i < 200000; ++i) sink = sink + 1.0;
  const double elapsed = timer.seconds();
  const double span = monotonic_seconds() - t0;
  // The timer's window is contained in the outer monotonic window.
  EXPECT_LE(elapsed, span + 1e-9);
}

}  // namespace
}  // namespace tbp::timing
