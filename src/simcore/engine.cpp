#include "simcore/engine.hpp"

#include <cassert>
#include <utility>

#include "obs/metric_catalog.hpp"
#include "obs/metrics.hpp"

namespace sdc::sim {

void Engine::schedule_at(SimTime t, Callback cb) {
  static obs::Counter& scheduled =
      obs::catalog_counter(obs::metric::kSimEngineTimersScheduled);
  scheduled.add(1);
  assert(t >= now_ && "cannot schedule in the past");
  if (t < now_) t = now_;
  queue_.push(Entry{t, next_seq_++, std::move(cb)});
}

void Engine::schedule_after(SimDuration d, Callback cb) {
  if (d < 0) d = 0;
  schedule_at(now_ + d, std::move(cb));
}

std::size_t Engine::run(SimTime until) {
  std::size_t n = 0;
  stop_requested_ = false;
  while (!queue_.empty() && !stop_requested_) {
    if (queue_.top().time > until) break;
    if (step()) ++n;
  }
  return n;
}

bool Engine::step() {
  if (queue_.empty()) return false;
  // priority_queue::top is const; move out via const_cast, which is safe
  // because the entry is popped immediately after.
  Entry entry = std::move(const_cast<Entry&>(queue_.top()));
  queue_.pop();
  now_ = entry.time;
  ++executed_;
  static obs::Counter& executed =
      obs::catalog_counter(obs::metric::kSimEngineEventsExecuted);
  executed.add(1);
  entry.cb();
  return true;
}

PeriodicTask PeriodicTask::start(Engine& engine, SimTime start,
                                 SimDuration interval,
                                 std::function<bool()> body) {
  PeriodicTask task;
  task.stopped_ = std::make_shared<bool>(false);
  auto stopped = task.stopped_;
  // Self-rescheduling closure; copies of `tick` share `stopped`.  The
  // stored function holds only a weak self-reference — the strong refs
  // live in the queued engine entries — so the chain frees itself once
  // no firing is pending (a strong capture here would be a cycle and
  // leak the closure and everything `body` owns).
  auto tick = std::make_shared<std::function<void()>>();
  std::weak_ptr<std::function<void()>> weak_tick = tick;
  *tick = [&engine, interval, body = std::move(body), stopped, weak_tick] {
    if (*stopped) return;
    if (!body()) {
      *stopped = true;
      return;
    }
    if (auto self = weak_tick.lock())
      engine.schedule_after(interval, [self] { (*self)(); });
  };
  engine.schedule_at(start, [tick] { (*tick)(); });
  return task;
}

}  // namespace sdc::sim
