// A value that can be reached only while its mutex is held.
//
// `Synchronized<T>` owns a `T` and the mutex that guards it, and hands the
// `T` out only through `lock()`: the returned `Locked` handle holds the
// mutex until it is destroyed, and its `*` / `->` work only on a named
// handle.  On a temporary they are deleted, so a reference taken through
// one cannot outlive the lock:
//
//   auto queue = queue_.lock();    // held until `queue` goes out of scope
//   queue->push(task);             // fine
//   queue_.lock()->push(task);     // compile error: the handle is a temporary
//   Task& t = *queue_.lock();      // compile error: `t` would outlive it
//
// `handle.lock()` exposes the underlying `std::unique_lock` for
// `std::condition_variable::wait`, which releases and retakes the mutex;
// the handle keeps pointing at the same `T`.  Every mutex-guarded piece of
// state in the tree lives in one of these, so lock discipline is checked
// by the compiler rather than by annotation (tbp_lint's `bare-mutex` rule
// flags any other mutex declaration).
#pragma once

#include <mutex>

namespace tbp::par {

/// Access to a `Synchronized` value for as long as the handle lives.
template <typename T>
class Locked {
 public:
  Locked(std::mutex& mutex, T& value) : lock_(mutex), value_(&value) {}

  // Not movable either: a moved-from handle would still reach the value
  // without holding the lock.
  Locked(const Locked&) = delete;
  Locked& operator=(const Locked&) = delete;

  [[nodiscard]] T& operator*() const& noexcept { return *value_; }
  [[nodiscard]] T* operator->() const& noexcept { return value_; }
  void operator*() const&& = delete;
  void operator->() const&& = delete;

  /// The held lock, for `std::condition_variable::wait`.
  [[nodiscard]] std::unique_lock<std::mutex>& lock() & noexcept {
    return lock_;
  }

 private:
  std::unique_lock<std::mutex> lock_;
  T* value_;
};

/// A `T` guarded by its own mutex; see the header comment.
template <typename T>
class Synchronized {
 public:
  Synchronized() = default;

  Synchronized(const Synchronized&) = delete;
  Synchronized& operator=(const Synchronized&) = delete;

  /// Blocks until the mutex is free; the value is reachable through the
  /// handle until it is destroyed.
  [[nodiscard]] Locked<T> lock() { return Locked<T>(mutex_, value_); }

 private:
  std::mutex mutex_;  // tbp-lint: allow(bare-mutex) -- the one mutex the rule permits: it guards value_, which only a Locked handle reaches
  T value_{};
};

}  // namespace tbp::par
