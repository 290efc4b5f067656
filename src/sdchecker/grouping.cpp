#include "sdchecker/grouping.hpp"

namespace sdc::checker {

std::optional<std::int64_t> ContainerTimeline::ts(EventKind kind) const {
  return first_ts.get(kind);
}

bool ContainerTimeline::has(EventKind kind) const {
  return first_ts.contains(kind);
}

std::optional<std::int64_t> AppTimeline::ts(EventKind kind) const {
  return first_ts.get(kind);
}

bool AppTimeline::has(EventKind kind) const { return first_ts.contains(kind); }

std::uint32_t AppTimeline::container_present_mask() const {
  std::uint32_t mask = 0;
  for (const auto& [id, timeline] : containers) {
    mask |= timeline.first_ts.present_mask();
  }
  return mask;
}

const ContainerTimeline* AppTimeline::am_container() const {
  for (const auto& [id, timeline] : containers) {
    if (id.is_am()) return &timeline;
  }
  return nullptr;
}

std::vector<const ContainerTimeline*> AppTimeline::worker_containers() const {
  std::vector<const ContainerTimeline*> out;
  for (const auto& [id, timeline] : containers) {
    if (!id.is_am()) out.push_back(&timeline);
  }
  return out;  // `containers` iterates in id order
}

std::optional<std::int64_t> AppTimeline::min_worker_ts(EventKind kind) const {
  std::optional<std::int64_t> best;
  for (const ContainerTimeline* c : worker_containers()) {
    const auto t = c->ts(kind);
    if (t && (!best || *t < *best)) best = t;
  }
  return best;
}

std::optional<std::int64_t> AppTimeline::max_worker_ts(EventKind kind) const {
  std::optional<std::int64_t> best;
  for (const ContainerTimeline* c : worker_containers()) {
    const auto t = c->ts(kind);
    if (t && (!best || *t > *best)) best = t;
  }
  return best;
}

bool apply_event(AppTable& apps, const EventBatch& events, std::size_t i) {
  if (!events.has_app(i)) return false;
  const ApplicationId& app_id = events.app_at(i);
  const EventKind kind = events.kind_at(i);
  const std::int64_t ts_ms = events.ts_at(i);
  AppTimeline& app = apps[app_id];
  app.app = app_id;
  if (events.has_container(i)) {
    const ContainerId& container_id = events.container_at(i);
    ContainerTimeline& container = app.containers[container_id];
    container.id = container_id;
    container.first_ts.record(kind, ts_ms);
  } else {
    app.first_ts.record(kind, ts_ms);
  }
  return true;
}

}  // namespace sdc::checker
