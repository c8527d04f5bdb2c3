#include "support/parallel.hpp"

#include <algorithm>
#include <cassert>
#include <memory>

namespace tbp::par {

std::size_t default_jobs() noexcept {
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<std::size_t>(hw);
}

ThreadPool::ThreadPool(std::size_t n_workers) {
  const std::size_t n = std::max<std::size_t>(n_workers, 1);
  threads_.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    threads_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    auto queue = queue_.lock();
    queue->stop = true;
  }
  cv_.notify_all();
  for (std::thread& t : threads_) t.join();
}

void ThreadPool::enqueue(std::function<void()> task) {
  {
    auto queue = queue_.lock();
    assert(!queue->stop && "enqueue on a stopping ThreadPool");
    queue->tasks.push(std::move(task));
  }
  cv_.notify_one();
}

void ThreadPool::worker_loop() {
  for (;;) {
    std::function<void()> task;
    {
      auto queue = queue_.lock();
      cv_.wait(queue.lock(),
               [&queue] { return queue->stop || !queue->tasks.empty(); });
      if (queue->tasks.empty()) return;  // stop set and nothing left to run
      task = std::move(queue->tasks.front());
      queue->tasks.pop();
    }
    task();
  }
}

namespace {

// The desired total concurrency and the lazily-created shared pool.  The
// pool is intentionally leaked: bench binaries may still have detached
// helper tasks referencing it during static destruction, and the OS
// reclaims the threads at process exit anyway.
struct GlobalPool {
  std::size_t jobs = 0;  // 0 = not configured, use default_jobs()
  ThreadPool* pool = nullptr;

  [[nodiscard]] std::size_t total_jobs() const noexcept {
    return jobs == 0 ? default_jobs() : jobs;
  }
};

constinit Synchronized<GlobalPool> g_global;

}  // namespace

void set_global_jobs(std::size_t jobs) {
  auto global = g_global.lock();
  const std::size_t clamped = std::max<std::size_t>(jobs, 1);
  if (global->jobs == clamped) return;
  global->jobs = clamped;
  if (global->pool != nullptr) {
    // Resize: drain and join the old workers, then respawn.  The caller
    // contract (no parallel work in flight) makes this safe.
    // tbp-lint: allow(naked-new) -- deliberately-leaked singleton (see GlobalPool); unique_ptr would reintroduce the static-destruction race this design avoids
    delete global->pool;
    global->pool = nullptr;
  }
}

std::size_t global_jobs() noexcept {
  const auto global = g_global.lock();
  return global->total_jobs();
}

ThreadPool& global_pool() {
  auto global = g_global.lock();
  if (global->pool == nullptr) {
    const std::size_t jobs = global->total_jobs();
    // tbp-lint: allow(naked-new) -- intentional leak: workers must outlive static destruction of bench binaries with detached helper tasks
    global->pool = new ThreadPool(jobs <= 1 ? 1 : jobs - 1);
  }
  return *global->pool;
}

namespace detail {

void ForBatch::drain() {
  for (;;) {
    const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
    if (i >= n) return;
    // Once one iteration has thrown, remaining unstarted iterations are
    // skipped (they still count as done so the caller can finish waiting).
    if (!failed.load(std::memory_order_acquire)) {
      try {
        fn(i);
      } catch (...) {
        {
          auto first = error.lock();
          if (*first == nullptr) *first = std::current_exception();
        }
        failed.store(true, std::memory_order_release);
      }
    }
    if (done.fetch_add(1, std::memory_order_acq_rel) + 1 == n) {
      // Lock before notifying so the waiter cannot check the predicate and
      // sleep between our increment and our notify (lost-wakeup guard).
      const auto held = error.lock();
      cv.notify_all();
    }
  }
}

void run_parallel_for(std::size_t n, std::size_t jobs,
                      std::function<void(std::size_t)> fn) {
  auto batch = std::make_shared<ForBatch>(n, std::move(fn));
  // jobs - 1 helpers; the caller is the jobs-th executor.  Helpers that
  // arrive after the batch drained claim nothing and return immediately.
  const std::size_t helpers = std::min(jobs, n) - 1;
  ThreadPool& pool = global_pool();
  for (std::size_t h = 0; h < helpers; ++h) {
    pool.enqueue([batch] { batch->drain(); });
  }
  batch->drain();
  auto error = batch->error.lock();
  batch->cv.wait(error.lock(), [&] {
    return batch->done.load(std::memory_order_acquire) == batch->n;
  });
  if (*error != nullptr) std::rethrow_exception(*error);
}

}  // namespace detail

}  // namespace tbp::par
