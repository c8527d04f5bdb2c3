#include "support/synchronized.hpp"

#include <gtest/gtest.h>

#include <condition_variable>
#include <cstddef>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

namespace tbp::par {
namespace {

struct Counter {
  long value = 0;
};

using Handle = Locked<Counter>;

// A reference taken through a temporary handle would outlive its lock, so
// `*` and `->` compile only on a named handle.
template <typename H>
concept Dereferenceable = requires { *std::declval<H>(); };

template <typename H>
concept HasArrow = requires { std::declval<H>().operator->(); };

static_assert(!Dereferenceable<Handle&&>);
static_assert(!HasArrow<Handle&&>);
static_assert(Dereferenceable<const Handle&>);
static_assert(HasArrow<const Handle&>);
static_assert(Dereferenceable<Handle&>);
static_assert(!std::is_copy_constructible_v<Synchronized<Counter>>);
static_assert(!std::is_copy_assignable_v<Synchronized<Counter>>);
static_assert(!std::is_copy_constructible_v<Handle>);

TEST(SynchronizedTest, ConcurrentIncrementsThroughLockAreNotLost) {
  constexpr std::size_t kThreads = 4;
  constexpr long kIncrements = 10000;
  Synchronized<Counter> counter;
  {
    std::vector<std::thread> threads;
    threads.reserve(kThreads);
    for (std::size_t t = 0; t < kThreads; ++t) {
      threads.emplace_back([&counter] {
        for (long i = 0; i < kIncrements; ++i) {
          auto held = counter.lock();
          held->value += 1;
        }
      });
    }
    for (std::thread& thread : threads) thread.join();
  }
  const auto held = counter.lock();
  EXPECT_EQ(held->value, static_cast<long>(kThreads) * kIncrements);
}

TEST(SynchronizedTest, ConditionVariableWaitsOnTheHandlesLock) {
  struct Mailbox {
    bool ready = false;
    int payload = 0;
  };
  Synchronized<Mailbox> mailbox;
  std::condition_variable cv;
  std::thread producer([&] {
    {
      auto box = mailbox.lock();
      box->payload = 42;
      box->ready = true;
    }
    cv.notify_one();
  });
  {
    auto box = mailbox.lock();
    cv.wait(box.lock(), [&box] { return box->ready; });
    EXPECT_EQ(box->payload, 42);
    EXPECT_TRUE(box.lock().owns_lock());
  }
  producer.join();
}

}  // namespace
}  // namespace tbp::par
