#include "sdchecker/events.hpp"

namespace sdc::checker {

std::string_view event_name(EventKind kind) {
  switch (kind) {
    case EventKind::kAppSubmitted:
      return "SUBMITTED";
    case EventKind::kAppAccepted:
      return "ACCEPTED";
    case EventKind::kAttemptRegistered:
      return "APT_REGISTERED";
    case EventKind::kContainerAllocated:
      return "ALLOCATED";
    case EventKind::kContainerAcquired:
      return "ACQUIRED";
    case EventKind::kNmLocalizing:
      return "LOCALIZING";
    case EventKind::kNmScheduled:
      return "SCHEDULED";
    case EventKind::kNmRunning:
      return "RUNNING";
    case EventKind::kDriverFirstLog:
      return "DRV_FIRST_LOG";
    case EventKind::kDriverRegister:
      return "DRV_REGISTER";
    case EventKind::kStartAllo:
      return "START_ALLO";
    case EventKind::kEndAllo:
      return "END_ALLO";
    case EventKind::kExecutorFirstLog:
      return "EXE_FIRST_LOG";
    case EventKind::kExecutorFirstTask:
      return "FIRST_TASK";
    case EventKind::kRmContainerRunning:
      return "RM_RUNNING";
    case EventKind::kRmContainerCompleted:
      return "RM_COMPLETED";
    case EventKind::kRmContainerReleased:
      return "RM_RELEASED";
    case EventKind::kNmExited:
      return "NM_EXITED";
    case EventKind::kNmFailed:
      return "NM_FAILED";
    case EventKind::kAppFinished:
      return "APP_FINISHED";
  }
  return "?";
}

std::int32_t table1_number(EventKind kind) {
  const auto raw = static_cast<std::int32_t>(kind);
  return raw >= 1 && raw <= 14 ? raw : 0;
}

namespace {

constexpr EventKind kAllEventKinds[] = {
    EventKind::kAppSubmitted,        EventKind::kAppAccepted,
    EventKind::kAttemptRegistered,   EventKind::kContainerAllocated,
    EventKind::kContainerAcquired,   EventKind::kNmLocalizing,
    EventKind::kNmScheduled,         EventKind::kNmRunning,
    EventKind::kDriverFirstLog,      EventKind::kDriverRegister,
    EventKind::kStartAllo,           EventKind::kEndAllo,
    EventKind::kExecutorFirstLog,    EventKind::kExecutorFirstTask,
    EventKind::kRmContainerRunning,  EventKind::kRmContainerCompleted,
    EventKind::kRmContainerReleased, EventKind::kNmExited,
    EventKind::kAppFinished,         EventKind::kNmFailed,
};

}  // namespace

std::span<const EventKind> all_event_kinds() { return kAllEventKinds; }

std::optional<EventKind> event_from_name(std::string_view name) {
  for (const EventKind kind : kAllEventKinds) {
    if (event_name(kind) == name) return kind;
  }
  return std::nullopt;
}

void EventBatch::push(EventKind kind, std::int64_t ts_ms,
                      const std::optional<ApplicationId>& app,
                      const std::optional<ContainerId>& container) {
  kinds_.push_back(static_cast<std::uint8_t>(kind));
  ts_.push_back(ts_ms);
  std::uint8_t flags = 0;
  if (app) flags |= kHasApp;
  if (container) flags |= kHasContainer;
  flags_.push_back(flags);
  apps_.push_back(app.value_or(ApplicationId{}));
  containers_.push_back(container.value_or(ContainerId{}));
}

void EventBatch::append_row(const EventBatch& src, std::size_t i) {
  kinds_.push_back(src.kinds_[i]);
  ts_.push_back(src.ts_[i]);
  flags_.push_back(src.flags_[i]);
  apps_.push_back(src.apps_[i]);
  containers_.push_back(src.containers_[i]);
}

void EventBatch::append(EventBatch&& src) {
  const auto append_column = [](auto& column, const auto& from) {
    column.insert(column.end(), from.begin(), from.end());
  };
  append_column(kinds_, src.kinds_);
  append_column(ts_, src.ts_);
  append_column(flags_, src.flags_);
  append_column(apps_, src.apps_);
  append_column(containers_, src.containers_);
  src = EventBatch();
}

void EventBatch::reserve(std::size_t n) {
  kinds_.reserve(n);
  ts_.reserve(n);
  flags_.reserve(n);
  apps_.reserve(n);
  containers_.reserve(n);
}

void EventBatch::clear() {
  kinds_.clear();
  ts_.clear();
  flags_.clear();
  apps_.clear();
  containers_.clear();
}

EventBatch::View EventBatch::operator[](std::size_t i) const {
  View view;
  view.kind = static_cast<EventKind>(kinds_[i]);
  view.ts_ms = ts_[i];
  if ((flags_[i] & kHasApp) != 0) view.app = apps_[i];
  if ((flags_[i] & kHasContainer) != 0) view.container = containers_[i];
  return view;
}

bool is_container_event(EventKind kind) {
  switch (kind) {
    case EventKind::kContainerAllocated:
    case EventKind::kContainerAcquired:
    case EventKind::kNmLocalizing:
    case EventKind::kNmScheduled:
    case EventKind::kNmRunning:
    case EventKind::kExecutorFirstLog:
    case EventKind::kExecutorFirstTask:
    case EventKind::kRmContainerRunning:
    case EventKind::kRmContainerCompleted:
    case EventKind::kRmContainerReleased:
    case EventKind::kNmExited:
    case EventKind::kNmFailed:
      return true;
    case EventKind::kAppSubmitted:
    case EventKind::kAppAccepted:
    case EventKind::kAttemptRegistered:
    case EventKind::kDriverFirstLog:
    case EventKind::kDriverRegister:
    case EventKind::kStartAllo:
    case EventKind::kEndAllo:
    case EventKind::kAppFinished:
      return false;
  }
  return false;
}

}  // namespace sdc::checker
