#include "support/parallel.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <numeric>
#include <stdexcept>
#include <vector>

namespace tbp::par {
namespace {

TEST(ParallelTest, DefaultJobsIsAtLeastOne) {
  EXPECT_GE(default_jobs(), 1u);
  EXPECT_GE(global_jobs(), 1u);
}

// ---- ThreadPool ----

TEST(ThreadPoolTest, SpawnsAtLeastOneWorker) {
  ThreadPool pool(0);
  EXPECT_EQ(pool.workers(), 1u);
  ThreadPool pool4(4);
  EXPECT_EQ(pool4.workers(), 4u);
}

TEST(ThreadPoolTest, DestructorDrainsQueuedTasks) {
  std::atomic<int> ran{0};
  {
    ThreadPool pool(2);
    for (int i = 0; i < 50; ++i) {
      pool.enqueue([&ran]() { ran.fetch_add(1); });
    }
  }
  EXPECT_EQ(ran.load(), 50);
}

// ---- parallel_for ----

TEST(ParallelForTest, ZeroIterationsIsANoOp) {
  bool touched = false;
  parallel_for(0, 8, [&](std::size_t) { touched = true; });
  EXPECT_FALSE(touched);
}

TEST(ParallelForTest, SingleIterationRunsInline) {
  std::size_t seen = 99;
  parallel_for(1, 8, [&](std::size_t i) { seen = i; });
  EXPECT_EQ(seen, 0u);
}

TEST(ParallelForTest, EveryIndexRunsExactlyOnce) {
  constexpr std::size_t kN = 1000;
  std::vector<std::atomic<int>> counts(kN);
  parallel_for(kN, 8, [&](std::size_t i) { counts[i].fetch_add(1); });
  for (std::size_t i = 0; i < kN; ++i) {
    EXPECT_EQ(counts[i].load(), 1) << "index " << i;
  }
}

TEST(ParallelForTest, SlotCollectionMatchesSerialRun) {
  // The determinism contract: slot-indexed collection + serial reduction is
  // identical for every jobs value.
  constexpr std::size_t kN = 257;
  const auto compute = [](std::size_t i) {
    double x = static_cast<double>(i) + 0.5;
    for (int k = 0; k < 50; ++k) x = x * 1.0000001 + 0.25;
    return x;
  };
  std::vector<double> serial(kN), parallel(kN);
  parallel_for(kN, 1, [&](std::size_t i) { serial[i] = compute(i); });
  parallel_for(kN, 8, [&](std::size_t i) { parallel[i] = compute(i); });
  for (std::size_t i = 0; i < kN; ++i) {
    EXPECT_EQ(serial[i], parallel[i]) << "slot " << i;  // bit-identical
  }
  const double serial_sum = std::accumulate(serial.begin(), serial.end(), 0.0);
  const double parallel_sum =
      std::accumulate(parallel.begin(), parallel.end(), 0.0);
  EXPECT_EQ(serial_sum, parallel_sum);
}

TEST(ParallelForTest, RethrowsTaskException) {
  EXPECT_THROW(
      parallel_for(100, 4,
                   [](std::size_t i) {
                     if (i == 37) throw std::runtime_error("iteration 37");
                   }),
      std::runtime_error);
}

TEST(ParallelForTest, ExceptionSkipsRemainingIterations) {
  // After a failure, unstarted iterations are skipped — the loop finishes
  // promptly instead of running the full space.
  std::atomic<std::size_t> executed{0};
  try {
    parallel_for(100000, 4, [&](std::size_t) {
      executed.fetch_add(1);
      throw std::runtime_error("fail fast");
    });
    FAIL() << "expected an exception";
  } catch (const std::runtime_error&) {
  }
  EXPECT_LT(executed.load(), 100000u);
}

TEST(ParallelForTest, NestedParallelForDoesNotDeadlock) {
  // Callers participate in their own batch, so an inner parallel_for on a
  // saturated pool still makes progress.
  constexpr std::size_t kOuter = 16;
  constexpr std::size_t kInner = 16;
  std::vector<std::atomic<int>> counts(kOuter * kInner);
  parallel_for(kOuter, 8, [&](std::size_t o) {
    parallel_for(kInner, 8, [&](std::size_t i) {
      counts[o * kInner + i].fetch_add(1);
    });
  });
  for (std::size_t i = 0; i < counts.size(); ++i) {
    EXPECT_EQ(counts[i].load(), 1) << "slot " << i;
  }
}

TEST(ParallelForTest, JobsLargerThanIterationCountIsSafe) {
  std::vector<int> slots(3, 0);
  parallel_for(slots.size(), 64, [&](std::size_t i) {
    slots[i] = static_cast<int>(i) + 1;
  });
  EXPECT_EQ(slots, (std::vector<int>{1, 2, 3}));
}

TEST(ParallelTest, SetGlobalJobsResizesThePool) {
  set_global_jobs(4);
  EXPECT_EQ(global_jobs(), 4u);
  // jobs-1 workers: the calling thread is the fourth executor.
  EXPECT_EQ(global_pool().workers(), 3u);
  set_global_jobs(1);
  EXPECT_EQ(global_jobs(), 1u);
}

}  // namespace
}  // namespace tbp::par
