#include "obs/metric_catalog.hpp"

#include <stdexcept>

#include "common/thread_pool.hpp"

namespace sdc::obs {
namespace {

using namespace metric;

constexpr MetricSpec kCatalog[] = {
    kSimEngineEventsExecuted,
    kSimEngineTimersScheduled,
    kSimRmAppsSubmitted,
    kSimRmAppTransitions,
    kSimRmContainerTransitions,
    kSimRmContainersAllocated,
    kSimRmNodeHeartbeats,
    kSimRmAmHeartbeats,
    kSimNmContainerTransitions,
    kSimSparkExecutorsRegistered,
    kSimSparkTasksAssigned,
    kSimYarnAllocPipelineWaitMs,
    kMineLines,
    kMineLinesExpected,
    kMineEvents,
    kMineStreams,
    kMineDiagnostics,
    kMineScanPrefilterSkipped,
    kMineScanBackend,
    kIncrementalLines,
    kIncrementalAppsRetired,
    kFollowPolls,
    kFollowBytes,
    kFollowStreams,
    kFollowRotations,
    kFollowAppsRetired,
    kFollowTailsChecked,
    kFollowPollLastAgeMs,
    kFollowPollStall,
    kObsHttpRequests,
    kObsHttpBytes,
    kObsHttpLatencyMs,
    kObsHttpErrors,
    kPoolTasks,
    kPoolHelpWhileWait,
    kPoolQueueDepth,
    kFleetCorpora,
    kFleetCorporaFailed,
    kFleetRegressions,
    kAnalyzeApps,
    kAnalyzeAnomalies,
    kAnalyzeShards,
    kSdcDelay,
};

/// Registration-time guard: the spec handed to a catalog_* helper must
/// be a catalog row (by name) of the kind the helper registers.  This
/// cannot drift silently — a violation is a std::logic_error thrown the
/// first time the instrumentation point runs, and sdlint's metrics.*
/// checks cross-examine the registry snapshot independently.
void require_cataloged(const MetricSpec& spec, MetricKind kind,
                       bool family_call) {
  if (spec.kind != kind) {
    throw std::logic_error("metric catalog: '" + std::string(spec.name) +
                           "' is a " +
                           std::string(metric_kind_name(spec.kind)) +
                           ", registered as a " +
                           std::string(metric_kind_name(kind)));
  }
  if (spec.is_family() != family_call) {
    throw std::logic_error(
        "metric catalog: '" + std::string(spec.name) +
        (family_call ? "' is not a dynamic-suffix family"
                     : "' is a family; registration needs a suffix"));
  }
  for (const MetricSpec& row : kCatalog) {
    if (row.name == spec.name) return;
  }
  throw std::logic_error("metric catalog: '" + std::string(spec.name) +
                         "' is not a catalog row");
}

}  // namespace

std::string_view metric_kind_name(MetricKind kind) {
  switch (kind) {
    case MetricKind::kCounter:
      return "counter";
    case MetricKind::kGauge:
      return "gauge";
    case MetricKind::kHistogram:
      return "histogram";
  }
  return "?";
}

std::span<const MetricSpec> metric_catalog() { return kCatalog; }

const MetricSpec* find_metric_spec(std::string_view instrument) {
  for (const MetricSpec& row : kCatalog) {
    if (row.matches(instrument)) return &row;
  }
  return nullptr;
}

Counter& catalog_counter(const MetricSpec& spec) {
  require_cataloged(spec, MetricKind::kCounter, /*family_call=*/false);
  return MetricsRegistry::global().counter(spec.name);
}

Counter& catalog_counter(const MetricSpec& family, std::string_view suffix) {
  require_cataloged(family, MetricKind::kCounter, /*family_call=*/true);
  return MetricsRegistry::global().counter(
      std::string(family.family_prefix()) + std::string(suffix));
}

Gauge& catalog_gauge(const MetricSpec& spec) {
  require_cataloged(spec, MetricKind::kGauge, /*family_call=*/false);
  return MetricsRegistry::global().gauge(spec.name);
}

Histogram& catalog_histogram(const MetricSpec& spec,
                             std::vector<double> upper_edges) {
  require_cataloged(spec, MetricKind::kHistogram, /*family_call=*/false);
  return MetricsRegistry::global().histogram(spec.name,
                                             std::move(upper_edges));
}

Histogram& catalog_histogram(const MetricSpec& family,
                             std::string_view suffix,
                             std::vector<double> upper_edges) {
  require_cataloged(family, MetricKind::kHistogram, /*family_call=*/true);
  return MetricsRegistry::global().histogram(
      std::string(family.family_prefix()) + std::string(suffix),
      std::move(upper_edges));
}

void attach_thread_pool_metrics() {
  ThreadPoolMetricSinks sinks;
  sinks.tasks = &catalog_counter(metric::kPoolTasks).raw();
  sinks.help_while_wait = &catalog_counter(metric::kPoolHelpWhileWait).raw();
  sinks.queue_depth = &catalog_gauge(metric::kPoolQueueDepth).raw();
  set_thread_pool_metric_sinks(sinks);
}

void register_catalog_baseline() {
  attach_thread_pool_metrics();
  for (const MetricSpec& row : kCatalog) {
    if (row.is_family()) continue;  // members appear as they occur
    switch (row.kind) {
      case MetricKind::kCounter:
        catalog_counter(row);
        break;
      case MetricKind::kGauge:
        catalog_gauge(row);
        break;
      case MetricKind::kHistogram:
        catalog_histogram(row);
        break;
    }
  }
}

std::string render_metric_table() { return render_metric_table(kCatalog); }

std::string render_metric_table(std::span<const MetricSpec> specs) {
  std::string out =
      "| name | kind | unit | meaning |\n|---|---|---|---|\n";
  for (const MetricSpec& row : specs) {
    out += "| `";
    out += row.name;
    out += "` | ";
    out += metric_kind_name(row.kind);
    out += " | ";
    out += row.unit;
    out += " | ";
    out += row.doc;
    out += " |\n";
  }
  return out;
}

}  // namespace sdc::obs
