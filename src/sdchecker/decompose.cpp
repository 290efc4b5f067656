#include "sdchecker/decompose.hpp"

#include "sdchecker/report.hpp"

namespace sdc::checker {
namespace {

DelaySpan between(std::optional<std::int64_t> from,
                  std::optional<std::int64_t> to) {
  if (!from || !to) return {from, std::nullopt};
  return {from, *to - *from};
}

std::vector<std::int64_t> collect(
    const std::vector<ContainerDelays>& containers,
    std::optional<std::int64_t> ContainerDelays::* field) {
  std::vector<std::int64_t> out;
  for (const ContainerDelays& c : containers) {
    if (!c.is_am && c.*field) out.push_back(*(c.*field));
  }
  return out;
}

}  // namespace

std::vector<std::int64_t> Delays::worker_acquisitions() const {
  return collect(containers, &ContainerDelays::acquisition);
}
std::vector<std::int64_t> Delays::worker_localizations() const {
  return collect(containers, &ContainerDelays::localization);
}
std::vector<std::int64_t> Delays::worker_queuings() const {
  return collect(containers, &ContainerDelays::queuing);
}
std::vector<std::int64_t> Delays::worker_launchings() const {
  return collect(containers, &ContainerDelays::launching);
}
std::vector<std::int64_t> Delays::worker_idles() const {
  return collect(containers, &ContainerDelays::executor_idle);
}

AppSpans app_spans(const AppTimeline& timeline) {
  const auto submitted = timeline.ts(EventKind::kAppSubmitted);
  const auto first_task = timeline.min_worker_ts(EventKind::kExecutorFirstTask);
  const auto first_running = timeline.min_worker_ts(EventKind::kNmRunning);
  const auto last_running = timeline.max_worker_ts(EventKind::kNmRunning);

  const DelaySpan total = between(submitted, first_task);
  const DelaySpan am =
      between(submitted, timeline.ts(EventKind::kAttemptRegistered));
  const DelaySpan cf = between(submitted, first_running);
  const DelaySpan cl = between(submitted, last_running);
  const DelaySpan cl_minus_cf = between(first_running, last_running);
  const DelaySpan driver = between(timeline.ts(EventKind::kDriverFirstLog),
                                   timeline.ts(EventKind::kDriverRegister));
  const DelaySpan executor = between(
      timeline.min_worker_ts(EventKind::kExecutorFirstLog), first_task);
  // in-app and out-app are sums with no anchors of their own: both start
  // at SUBMITTED, under total.  out-app is what remains of total after
  // in-app, so it has a place only under a non-negative in-app.
  DelaySpan in_app{submitted, std::nullopt};
  DelaySpan out_app;
  if (driver.length && executor.length) {
    in_app.length = *driver.length + *executor.length;
    if (total.length) out_app.length = *total.length - *in_app.length;
    if (*in_app.length >= 0) out_app.start = submitted;
  }
  const DelaySpan alloc = between(timeline.ts(EventKind::kStartAllo),
                                  timeline.ts(EventKind::kEndAllo));
  return {total,  am,       cf,     cl,      cl_minus_cf,
          driver, executor, in_app, out_app, alloc};
}

ContainerSpans container_spans(const AppTimeline& timeline,
                               const ContainerId& id,
                               const ContainerTimeline& container) {
  const auto scheduled = container.ts(EventKind::kNmScheduled);
  const auto running = container.ts(EventKind::kNmRunning);
  const auto executor_first_log = container.ts(EventKind::kExecutorFirstLog);

  const DelaySpan acquisition =
      between(container.ts(EventKind::kContainerAllocated),
              container.ts(EventKind::kContainerAcquired));
  const DelaySpan localization =
      between(container.ts(EventKind::kNmLocalizing), scheduled);
  const DelaySpan queuing = between(scheduled, running);
  // Launching ends at the launched instance's first log line: the
  // driver's for the AM container, the executor's otherwise.  A failed
  // launch never produced a first log (the app-level driver log may
  // belong to a *later attempt's* AM, so it must not be borrowed).
  const auto instance_first_log =
      container.has(EventKind::kNmFailed) ? std::nullopt
      : id.is_am() ? timeline.ts(EventKind::kDriverFirstLog)
                   : executor_first_log;
  const DelaySpan launching = between(running, instance_first_log);
  // Executor idle (paper Fig. 10), workers only: the executor's
  // FIRST_LOG to its own first task.
  const DelaySpan exec_idle =
      id.is_am() ? DelaySpan{}
                 : between(executor_first_log,
                           container.ts(EventKind::kExecutorFirstTask));
  return {acquisition, localization, queuing, launching, exec_idle};
}

Delays decompose(const AppTimeline& timeline) {
  const auto specs = delay_component_specs();
  Delays out;
  out.app = timeline.app;
  const AppSpans spans = app_spans(timeline);
  for (std::size_t row = 0; row < spans.size(); ++row) {
    out.*specs[row].app = spans[row].length;
  }
  const auto container_rows = specs.subspan(kAppComponents);
  for (const auto& [id, container] : timeline.containers) {
    ContainerDelays& delays = out.containers.emplace_back();
    delays.id = id;
    delays.is_am = id.is_am();
    const ContainerSpans chain = container_spans(timeline, id, container);
    for (std::size_t i = 0; i < chain.size(); ++i) {
      delays.*container_rows[i].container = chain[i].length;
    }
  }
  return out;
}

}  // namespace sdc::checker
