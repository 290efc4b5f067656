// Annotated mutex primitives: `std::mutex`/`std::condition_variable`
// wrapped so Clang Thread Safety Analysis can see them (ISSUE 8).
//
// `common::Mutex` is a capability, `common::MutexLock` the scoped
// acquisition, `common::CondVar` the matching condition variable.  Data
// a mutex protects is declared `SDC_GUARDED_BY(mu_)`; the CI
// `thread-safety` job (clang, `-Werror=thread-safety-analysis`) then
// rejects any access outside a critical section at compile time.
//
// Condition waits: write the predicate as an explicit loop —
//
//   MutexLock lock(mu_);
//   while (!ready_) cv_.wait(lock);
//
// not as a lambda passed to wait().  The analysis cannot see that a
// lambda body runs with the lock held, so predicate lambdas over
// guarded state would need escape hatches; the explicit loop form needs
// none.  (`CondVar::wait` releases and re-acquires the capability
// internally; to the analysis the lock is simply held throughout, which
// is exactly the invariant predicate loops rely on.)
#pragma once

#include <condition_variable>
#include <mutex>

#include "common/thread_annotations.hpp"

namespace sdc {

class CondVar;

/// An annotated `std::mutex`: lock discipline is checked at compile
/// time under Clang (see file comment); identical codegen otherwise.
class SDC_CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void lock() SDC_ACQUIRE() { mu_.lock(); }
  void unlock() SDC_RELEASE() { mu_.unlock(); }
  [[nodiscard]] bool try_lock() SDC_TRY_ACQUIRE(true) {
    return mu_.try_lock();
  }

 private:
  friend class MutexLock;
  std::mutex mu_;
};

/// RAII critical section over a `Mutex` (the only way CondVar waits).
class SDC_SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex& mu) SDC_ACQUIRE(mu) : lock_(mu.mu_) {}
  ~MutexLock() SDC_RELEASE() = default;

  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

 private:
  friend class CondVar;
  std::unique_lock<std::mutex> lock_;
};

/// Condition variable bound to `Mutex`/`MutexLock`.  Waits atomically
/// release the lock and re-acquire it before returning, exactly like
/// `std::condition_variable` — callers re-check their predicate in a
/// loop around `wait`.
class CondVar {
 public:
  CondVar() = default;
  CondVar(const CondVar&) = delete;
  CondVar& operator=(const CondVar&) = delete;

  void wait(MutexLock& lock) { cv_.wait(lock.lock_); }
  void notify_one() noexcept { cv_.notify_one(); }
  void notify_all() noexcept { cv_.notify_all(); }

 private:
  std::condition_variable cv_;
};

}  // namespace sdc
