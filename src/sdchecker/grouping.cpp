#include "sdchecker/grouping.hpp"

namespace sdc::checker {
namespace {

/// Applies one event to its application's timeline.  `container_id` is
/// nullptr for application-scoped events.
void apply_event_parts(AppTable& apps, const ApplicationId& app_id,
                       const ContainerId* container_id, EventKind kind,
                       std::int64_t ts_ms) {
  AppTimeline& app = apps[app_id];
  app.app = app_id;
  if (container_id != nullptr) {
    ContainerTimeline& container = app.containers[*container_id];
    container.id = *container_id;
    container.first_ts.record(kind, ts_ms);
    ++container.counts[kind];
  } else {
    app.first_ts.record(kind, ts_ms);
    ++app.counts[kind];
  }
}

}  // namespace

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
  return out;  // FlatOrderedMap iteration is already id-ordered
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
  apply_event_parts(apps, events.app_at(i),
                    events.has_container(i) ? &events.container_at(i) : nullptr,
                    events.kind_at(i), events.ts_at(i));
  return true;
}

std::size_t timeline_shard(const ApplicationId& app, std::size_t shards) {
  return ApplicationIdHash{}(app) % shards;
}

std::size_t apply_batch_to_shard(const EventBatch& events, AppTable& apps,
                                 std::size_t shard,
                                 std::size_t shard_count) {
  std::size_t unattributed = 0;
  const std::size_t n = events.size();
  for (std::size_t i = 0; i < n; ++i) {
    if (!events.has_app(i)) {
      if (shard == 0) ++unattributed;
      continue;
    }
    const ApplicationId& app = events.app_at(i);
    if (timeline_shard(app, shard_count) != shard) continue;
    apply_event_parts(
        apps, app, events.has_container(i) ? &events.container_at(i) : nullptr,
        events.kind_at(i), events.ts_at(i));
  }
  return unattributed;
}

}  // namespace sdc::checker
