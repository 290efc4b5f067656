// A small fixed-size thread pool used by SDchecker's parallel log miner
// (one shard per log file), the fleet-mode multi-corpus pipeline, and
// the benchmark harness for parameter sweeps.  Tasks are plain
// `std::function<void()>`; use `parallel_for` for the common
// index-loop pattern.
//
// Nested fan-out (ISSUE 10): a task running on the pool may itself call
// `parallel_for` on the *same* pool.  The waiting side never blocks
// while the queue has work — it pops and executes queued tasks instead
// (help-while-wait, `try_run_one`), so an inner fan-out issued from a
// fully-occupied pool still makes progress where a blocking wait would
// deadlock.  A short timed wait backstops the race between "queue looked
// empty" and "a task was enqueued right after".
//
// Lock discipline is declared with Clang Thread Safety annotations
// (common/thread_annotations.hpp): every shared member is GUARDED_BY
// `mu_`, so an unguarded access fails the `thread-safety` CI build
// instead of waiting for TSan to catch it racing.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <thread>
#include <vector>

#include "common/mutex.hpp"
#include "common/thread_annotations.hpp"

namespace sdc {

/// Raw atomic sinks the pool mirrors its activity into (`pool.tasks`,
/// `pool.help_while_wait`, `pool.queue_depth` in the metric catalog).
/// The common layer cannot depend on obs, so the obs side installs
/// pointers to its instruments' storage when the global metrics registry
/// is created (`obs::MetricsRegistry::global`); null sinks cost one
/// relaxed load per task.  Totals are process-wide across every pool
/// instance.
struct ThreadPoolMetricSinks {
  std::atomic<std::uint64_t>* tasks = nullptr;
  std::atomic<std::uint64_t>* help_while_wait = nullptr;
  std::atomic<std::int64_t>* queue_depth = nullptr;
};

/// Installs the process-wide sinks (idempotent; last call wins).  Safe
/// to call while pools are running — each sink pointer is swapped
/// atomically.
void set_thread_pool_metric_sinks(const ThreadPoolMetricSinks& sinks) noexcept;

/// Fixed-size worker pool.  Destruction waits for queued tasks to finish.
class ThreadPool {
 public:
  /// Spawns `threads` workers; 0 means `hardware_concurrency` (min 1).
  explicit ThreadPool(std::size_t threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Enqueues a task for asynchronous execution.
  void submit(std::function<void()> task) SDC_EXCLUDES(mu_);

  /// Pops one queued task and runs it on the calling thread; returns
  /// false when the queue was empty.  This is the help-while-wait
  /// primitive: a caller that must wait for pool work (parallel_for, a
  /// fleet corpus barrier) drains the queue instead of blocking, so
  /// nested fan-out on one pool cannot deadlock.
  bool try_run_one() SDC_EXCLUDES(mu_);

  /// Blocks until every submitted task has completed.
  void wait_idle() SDC_EXCLUDES(mu_);

  [[nodiscard]] std::size_t thread_count() const noexcept {
    return workers_.size();
  }

 private:
  void worker_loop() SDC_EXCLUDES(mu_);

  /// Written once in the constructor, read-only afterwards (workers
  /// never touch it) — confined, not guarded.
  std::vector<std::thread> workers_;
  Mutex mu_;
  std::deque<std::function<void()>> queue_ SDC_GUARDED_BY(mu_);
  CondVar cv_task_;
  CondVar cv_idle_;
  std::size_t in_flight_ SDC_GUARDED_BY(mu_) = 0;
  bool stopping_ SDC_GUARDED_BY(mu_) = false;
};

/// Runs `body(i)` for i in [0, n) across the pool, blocking until done.
/// Exceptions thrown by `body` are rethrown (first one wins) on the caller.
/// Safe to call from inside a pool task: the waiter executes queued work
/// (its own shards or anything else pending) instead of blocking.
void parallel_for(ThreadPool& pool, std::size_t n,
                  const std::function<void(std::size_t)>& body);

}  // namespace sdc
