#include "common/thread_pool.hpp"

#include <algorithm>
#include <exception>

#include "common/mutex.hpp"

namespace sdc {
namespace {

/// Process-wide metric sinks (see ThreadPoolMetricSinks).  Each pointer
/// is installed/read atomically so installation can race running pools.
std::atomic<std::atomic<std::uint64_t>*> g_tasks_sink{nullptr};
std::atomic<std::atomic<std::int64_t>*> g_depth_sink{nullptr};

inline void sink_add(std::atomic<std::atomic<std::uint64_t>*>& slot,
                     std::uint64_t n) {
  if (auto* sink = slot.load(std::memory_order_relaxed)) {
    sink->fetch_add(n, std::memory_order_relaxed);
  }
}

inline void depth_add(std::int64_t n) {
  if (auto* sink = g_depth_sink.load(std::memory_order_relaxed)) {
    sink->fetch_add(n, std::memory_order_relaxed);
  }
}

/// The pool whose `worker_loop` runs on this thread (null off the pools).
thread_local const ThreadPool* t_worker_of = nullptr;

}  // namespace

void set_thread_pool_metric_sinks(
    const ThreadPoolMetricSinks& sinks) noexcept {
  g_tasks_sink.store(sinks.tasks, std::memory_order_relaxed);
  g_depth_sink.store(sinks.queue_depth, std::memory_order_relaxed);
}

ThreadPool::ThreadPool(std::size_t threads) {
  if (threads == 0) {
    threads = std::thread::hardware_concurrency();
    if (threads == 0) threads = 1;
  }
  workers_.reserve(threads);
  for (std::size_t i = 0; i < threads; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    MutexLock lock(mu_);
    stopping_ = true;
  }
  cv_task_.notify_all();
  for (auto& w : workers_) w.join();
}

void ThreadPool::submit(std::function<void()> task) {
  {
    MutexLock lock(mu_);
    queue_.push_back(std::move(task));
  }
  depth_add(1);
  cv_task_.notify_one();
}

void ThreadPool::wait_idle() {
  MutexLock lock(mu_);
  while (!queue_.empty() || in_flight_ != 0) cv_idle_.wait(lock);
}

void ThreadPool::worker_loop() {
  t_worker_of = this;
  while (true) {
    std::function<void()> task;
    {
      MutexLock lock(mu_);
      while (!stopping_ && queue_.empty()) cv_task_.wait(lock);
      if (queue_.empty()) return;  // stopping_ and drained
      task = std::move(queue_.front());
      queue_.pop_front();
      ++in_flight_;
    }
    depth_add(-1);
    sink_add(g_tasks_sink, 1);
    task();
    {
      MutexLock lock(mu_);
      --in_flight_;
    }
    cv_idle_.notify_all();
  }
}

void parallel_for(ThreadPool& pool, std::size_t n,
                  const std::function<void(std::size_t)>& body) {
  if (n == 0) return;
  if (t_worker_of == &pool) {
    for (std::size_t i = 0; i < n; ++i) body(i);
    return;
  }
  std::atomic<std::size_t> next{0};
  std::exception_ptr first_error;
  const std::size_t shards = std::min(n, pool.thread_count());
  std::size_t done = 0;
  Mutex done_mu;
  CondVar done_cv;

  for (std::size_t s = 0; s < shards; ++s) {
    pool.submit([&] {
      std::size_t i;
      std::exception_ptr error;
      while ((i = next.fetch_add(1)) < n) {
        try {
          body(i);
        } catch (...) {
          if (!error) error = std::current_exception();
        }
      }
      // Notify while holding the lock: the caller's stack frame — and with
      // it done_cv itself — may be destroyed the instant the caller
      // observes done == shards, so an unlocked notify could land on a
      // dead condition variable.
      MutexLock lock(done_mu);
      if (error && !first_error) first_error = std::move(error);
      ++done;
      done_cv.notify_one();
    });
  }
  MutexLock lock(done_mu);
  while (done != shards) done_cv.wait(lock);
  if (first_error) std::rethrow_exception(first_error);
}

}  // namespace sdc
