// Deterministic parallel execution for the experiment pipeline.
//
// The bench harness runs many independent (workload, GPU-config) comparison
// rows, and each row runs many independent launch simulations; both levels
// are embarrassingly parallel once state isolation is explicit (every task
// owns its simulator, its RNG streams, and its output slot).  This header
// provides the two primitives the pipeline uses:
//
//  * ThreadPool — a small fixed-size pool with a futures `submit` API.  One
//    process-wide pool (`global_pool`) is shared by every level of the
//    pipeline, sized by the `--jobs` flag via `set_global_jobs`, so nesting
//    parallel sections never multiplies the thread count.
//
//  * parallel_for — runs fn(0..n-1) with at most `jobs` concurrent
//    executors.  The *calling thread participates* in the loop: a pool
//    worker that starts a nested parallel_for drains its own iteration
//    space even if every other worker is busy, so nested parallelism can
//    never deadlock on a full pool.  Iterations are claimed from a shared
//    atomic counter; the call returns when all n iterations finished and
//    rethrows the first task exception (remaining unstarted iterations are
//    skipped once a task has thrown).
//
// Determinism contract: parallel_for guarantees nothing about *execution*
// order, so callers must make results independent of it — write into
// pre-sized slots indexed by iteration index (never append in completion
// order), keep any reduction serial over the slots afterwards, and seed
// any RNG per-iteration.  Code written that way produces bit-identical
// results for every jobs value; tests/harness/parallel_test.cpp holds the
// pipeline to exactly that standard.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <exception>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <queue>
#include <thread>
#include <type_traits>
#include <vector>

namespace tbp::par {

/// std::thread::hardware_concurrency clamped to >= 1 (the value reports 0
/// when the host cannot be queried).  The default for every --jobs flag.
[[nodiscard]] std::size_t default_jobs() noexcept;

/// Fixed-size worker pool.  Tasks are plain FIFO; workers never block on
/// other tasks' results (blocking composition goes through parallel_for,
/// whose callers self-drain), so the pool cannot deadlock on itself.
class ThreadPool {
 public:
  /// Spawns max(n_workers, 1) worker threads.
  explicit ThreadPool(std::size_t n_workers);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  [[nodiscard]] std::size_t workers() const noexcept { return threads_.size(); }

  /// Enqueues a task with no result channel (exceptions must be handled by
  /// the task itself; a task that leaks an exception terminates).
  void enqueue(std::function<void()> task);

  /// Enqueues a task and returns its future; exceptions propagate through
  /// std::future::get.
  template <typename F>
  [[nodiscard]] auto submit(F&& f) -> std::future<std::invoke_result_t<F>> {
    using R = std::invoke_result_t<F>;
    auto task =
        std::make_shared<std::packaged_task<R()>>(std::forward<F>(f));
    std::future<R> future = task->get_future();
    enqueue([task]() { (*task)(); });
    return future;
  }

 private:
  void worker_loop();

  std::mutex mutex_;
  std::condition_variable cv_;
  std::queue<std::function<void()>> queue_;  // TBP_GUARDED_BY(mutex_)
  bool stop_ = false;                        // TBP_GUARDED_BY(mutex_)
  std::vector<std::thread> threads_;
};

/// Sizes the process-wide pool used by parallel_for: `jobs` is the total
/// concurrency (participating caller + jobs-1 workers).  Call it once after
/// flag parsing, before any parallel work; calling while parallel work is
/// in flight is undefined.  Never calling it leaves the default
/// (default_jobs()).
void set_global_jobs(std::size_t jobs);

/// The configured total concurrency (>= 1).
[[nodiscard]] std::size_t global_jobs() noexcept;

/// The shared pool, created on first use with global_jobs() - 1 workers
/// (min 1).  Prefer parallel_for; use the pool directly only for
/// fire-and-forget task shapes.
[[nodiscard]] ThreadPool& global_pool();

namespace detail {

/// One parallel_for invocation: a shared iteration counter plus completion
/// accounting.  Helpers enqueued on the pool and the calling thread all
/// claim indices from `next` until it runs past `n`.
struct ForBatch {
  explicit ForBatch(std::size_t n_items,
                    std::function<void(std::size_t)> body)
      : n(n_items), fn(std::move(body)) {}

  const std::size_t n;
  const std::function<void(std::size_t)> fn;
  std::atomic<std::size_t> next{0};
  std::atomic<std::size_t> done{0};
  std::atomic<bool> failed{false};
  std::mutex mutex;              // guards error, pairs with cv
  std::condition_variable cv;
  std::exception_ptr error;      // TBP_GUARDED_BY(mutex)

  /// Claims and runs iterations until none remain.  Safe to call from any
  /// number of threads; each index is executed exactly once.
  void drain();
};

void run_parallel_for(std::size_t n, std::size_t jobs,
                      std::function<void(std::size_t)> fn);

}  // namespace detail

/// Runs fn(0), ..., fn(n-1) with at most `jobs` concurrent executors
/// (jobs <= 1 runs inline on the caller, touching no threads at all).
/// Blocks until every iteration finished; rethrows the first exception any
/// iteration threw.  See the header comment for the determinism contract.
template <typename F>
void parallel_for(std::size_t n, std::size_t jobs, F&& fn) {
  if (n == 0) return;
  if (jobs <= 1 || n == 1) {
    for (std::size_t i = 0; i < n; ++i) fn(i);
    return;
  }
  detail::run_parallel_for(n, jobs, std::function<void(std::size_t)>(fn));
}

}  // namespace tbp::par
