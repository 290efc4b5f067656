// Discrete-event simulation engine.
//
// Single-threaded and deterministic: events fire in (time, insertion
// sequence) order, so equal-time events execute in the order they were
// scheduled and a fixed RNG seed reproduces a run exactly — the property
// the byte-identical-logs guarantee rests on (DESIGN.md §5).
//
// Concurrency discipline (checked in the thread-safety CI build): the
// engine, its timers and `PeriodicTask` are *thread-confined* — every
// member is touched only from the thread driving `run()`/`step()`, so
// none of this state is SDC_GUARDED_BY a mutex on purpose.  The only
// cross-thread traffic out of a simulation is the metrics counters,
// which are relaxed atomics behind `obs::MetricsRegistry` (whose own
// registry maps are lock-annotated).  Do not add shared mutable state
// here without a `common::Mutex` + annotations.
#pragma once

#include <cstdint>
#include <functional>
#include <limits>
#include <memory>
#include <queue>
#include <vector>

#include "common/sim_time.hpp"

namespace sdc::sim {

class Engine {
 public:
  using Callback = std::function<void()>;

  Engine() = default;
  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  /// Current simulation time (microseconds).
  [[nodiscard]] SimTime now() const noexcept { return now_; }

  /// Schedules `cb` at absolute time `t`; `t` must be >= now().
  void schedule_at(SimTime t, Callback cb);

  /// Schedules `cb` after `d` microseconds (clamped to >= 0).
  void schedule_after(SimDuration d, Callback cb);

  /// Runs until the queue drains or time would exceed `until`.
  /// Returns the number of callbacks executed.
  std::size_t run(SimTime until = std::numeric_limits<SimTime>::max());

  /// Executes the single next event; returns false if the queue is empty.
  bool step();

  /// Makes `run` return after the current callback completes.
  void request_stop() noexcept { stop_requested_ = true; }

  /// Events still queued.
  [[nodiscard]] std::size_t pending() const noexcept { return queue_.size(); }

  /// Total callbacks executed since construction.
  [[nodiscard]] std::uint64_t executed() const noexcept { return executed_; }

 private:
  struct Entry {
    SimTime time;
    std::uint64_t seq;
    Callback cb;
  };
  struct Later {
    bool operator()(const Entry& a, const Entry& b) const noexcept {
      if (a.time != b.time) return a.time > b.time;
      return a.seq > b.seq;
    }
  };

  std::priority_queue<Entry, std::vector<Entry>, Later> queue_;
  SimTime now_ = 0;
  std::uint64_t next_seq_ = 0;
  std::uint64_t executed_ = 0;
  bool stop_requested_ = false;
};

/// Schedules `body` every `interval` starting at `start`, for as long as
/// `body` returns true.  Each firing schedules the next; `cancel` sets the
/// chain's shared stop flag, so the next firing returns without running
/// `body` or scheduling another.
class PeriodicTask {
 public:
  PeriodicTask() = default;

  /// Starts the chain.  `body` is invoked at start, start+interval, ...
  static PeriodicTask start(Engine& engine, SimTime start,
                            SimDuration interval,
                            std::function<bool()> body);

  /// Stops future firings (in-flight callback still completes).
  void cancel() const {
    if (stopped_) *stopped_ = true;
  }

  [[nodiscard]] bool active() const { return stopped_ && !*stopped_; }

 private:
  std::shared_ptr<bool> stopped_;
};

}  // namespace sdc::sim
