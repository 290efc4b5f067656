// A small fixed-size thread pool: `analyze` runs a corpus's mining
// chunks and its per-app finalize on one, fleet mode runs every corpus's
// tasks on one shared pool, and the follow service finalizes its
// snapshots on one.  Tasks are plain `std::function<void()>`; use
// `parallel_for` for the common index-loop pattern.
//
// No task waits on its own pool: a `parallel_for` issued from a worker
// of the same pool runs its loop inline on that worker, and only a
// thread outside the pool blocks for shard tasks.  A worker that blocked
// instead could deadlock a fully occupied pool, its shards queued behind
// it.  Fleet mode finalizes each corpus serially on the worker whose
// chunk completed it, so its tasks never nest at all.
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

/// Raw atomic sinks the pool mirrors its activity into (`pool.tasks` and
/// `pool.queue_depth` in the metric catalog).
/// The common layer cannot depend on obs, so the obs side installs
/// pointers to its instruments' storage when the global metrics registry
/// is created (`obs::MetricsRegistry::global`); null sinks cost one
/// relaxed load per task.  Totals are process-wide across every pool
/// instance.
struct ThreadPoolMetricSinks {
  std::atomic<std::uint64_t>* tasks = nullptr;
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
/// Called from a worker of `pool` itself, it runs the loop inline on that
/// worker instead (an exception then ends the loop), so a nested call
/// never waits on the pool it occupies.
void parallel_for(ThreadPool& pool, std::size_t n,
                  const std::function<void(std::size_t)>& body);

}  // namespace sdc
