// The metric catalog: one constexpr row per instrument the tree is
// allowed to register (ISSUE 8).
//
// PR 4 fixed delay-component drift with a single-source-of-truth
// catalog (checker::DelayComponentSpec); this generalizes the pattern
// to *every* metric.  Each `MetricSpec` carries the instrument's name,
// kind, unit and one-line doc string; instrumentation points register
// through `catalog_counter`/`catalog_gauge`/`catalog_histogram`
// (passing the named spec, never a loose string), and sdlint's
// `metrics.*` checks hold three surfaces to the catalog:
//
//   - the registry: every instrument registered at runtime must match a
//     catalog row (name and kind);
//   - docs/OBSERVABILITY.md: the metric table is *generated* from this
//     catalog (`sdlint --metric-table`) and checked for parity in both
//     directions;
//   - the delay vocabulary: the `sdc.delay.<component>` family stays
//     bound to checker::delay_component_specs().
//
// Families: a name ending in `.<placeholder>` (literally, e.g.
// "mine.diagnostics.<kind>") declares a dynamic-suffix family; any
// instrument under the prefix belongs to that row.
#pragma once

#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "obs/metrics.hpp"

namespace sdc::obs {

enum class MetricKind { kCounter, kGauge, kHistogram };

[[nodiscard]] std::string_view metric_kind_name(MetricKind kind);

/// One catalog row.  All fields reference static storage (the catalog
/// is constexpr data), so specs are freely copyable string_view bags.
struct MetricSpec {
  std::string_view name;  // doc-facing; families end with ".<placeholder>"
  MetricKind kind = MetricKind::kCounter;
  std::string_view unit;  // what one increment / sample measures
  std::string_view doc;   // one-line meaning, rendered into the doc table

  /// True when this row declares a dynamic-suffix family.
  [[nodiscard]] constexpr bool is_family() const {
    return !name.empty() && name.back() == '>';
  }
  /// The literal prefix a family matches ("mine.diagnostics."); the
  /// full name for plain rows.
  [[nodiscard]] constexpr std::string_view family_prefix() const {
    const std::size_t lt = name.rfind('<');
    return lt == std::string_view::npos ? name : name.substr(0, lt);
  }
  /// Does a registered instrument name belong to this row?
  [[nodiscard]] constexpr bool matches(std::string_view instrument) const {
    if (!is_family()) return instrument == name;
    const std::string_view prefix = family_prefix();
    return instrument.size() > prefix.size() &&
           instrument.substr(0, prefix.size()) == prefix;
  }
};

namespace metric {

// --- simulator ---------------------------------------------------------------
inline constexpr MetricSpec kSimEngineEventsExecuted{
    "sim.engine.events_executed", MetricKind::kCounter, "events",
    "simulation events popped and run"};
inline constexpr MetricSpec kSimEngineTimersScheduled{
    "sim.engine.timers_scheduled", MetricKind::kCounter, "timers",
    "`schedule_at`/`schedule_after` calls"};
inline constexpr MetricSpec kSimRmAppsSubmitted{
    "sim.rm.apps_submitted", MetricKind::kCounter, "apps",
    "applications submitted to the RM"};
inline constexpr MetricSpec kSimRmAppTransitions{
    "sim.rm.app_transitions", MetricKind::kCounter, "transitions",
    "RMAppImpl state-machine transitions"};
inline constexpr MetricSpec kSimRmContainerTransitions{
    "sim.rm.container_transitions", MetricKind::kCounter, "transitions",
    "RMContainerImpl transitions"};
inline constexpr MetricSpec kSimRmContainersAllocated{
    "sim.rm.containers_allocated", MetricKind::kCounter, "containers",
    "containers reaching ALLOCATED"};
inline constexpr MetricSpec kSimRmNodeHeartbeats{
    "sim.rm.node_heartbeats", MetricKind::kCounter, "heartbeats",
    "NM heartbeats processed"};
inline constexpr MetricSpec kSimRmAmHeartbeats{
    "sim.rm.am_heartbeats", MetricKind::kCounter, "heartbeats",
    "AM allocate() heartbeats"};
inline constexpr MetricSpec kSimNmContainerTransitions{
    "sim.nm.container_transitions", MetricKind::kCounter, "transitions",
    "NM-side ContainerImpl transitions"};
inline constexpr MetricSpec kSimSparkExecutorsRegistered{
    "sim.spark.executors_registered", MetricKind::kCounter, "executors",
    "executors registered with drivers"};
inline constexpr MetricSpec kSimSparkTasksAssigned{
    "sim.spark.tasks_assigned", MetricKind::kCounter, "tasks",
    "task assignments to executors"};
inline constexpr MetricSpec kSimYarnAllocPipelineWaitMs{
    "sim.yarn.alloc_pipeline_wait_ms", MetricKind::kHistogram, "ms",
    "grant-to-allocation pipeline wait"};

// --- mining ------------------------------------------------------------------
inline constexpr MetricSpec kMineLines{
    "mine.lines", MetricKind::kCounter, "lines",
    "log lines mined (all chunks)"};
inline constexpr MetricSpec kMineLinesExpected{
    "mine.lines_expected", MetricKind::kGauge, "lines",
    "cumulative lines queued for mining (`expected - mine.lines` = "
    "remaining)"};
inline constexpr MetricSpec kMineEvents{
    "mine.events", MetricKind::kCounter, "events",
    "Table-I events extracted"};
inline constexpr MetricSpec kMineStreams{
    "mine.streams", MetricKind::kCounter, "streams", "streams mined"};
inline constexpr MetricSpec kMineDiagnostics{
    "mine.diagnostics.<kind>", MetricKind::kCounter, "occurrences",
    "per-kind corpus diagnostics (`unreadable-file`, `binary-garbage`, "
    "...)"};
inline constexpr MetricSpec kMineScanPrefilterSkipped{
    "mine.scan.prefilter_skipped", MetricKind::kCounter, "lines",
    "parsed lines rejected by the shortest-rule length pre-filter before "
    "extraction"};
inline constexpr MetricSpec kMineScanBackend{
    "mine.scan.backend.<name>", MetricKind::kCounter, "calls",
    "mine() calls run under each scan backend (`scalar`, `swar`, `sse2`, "
    "`avx2`)"};

// --- incremental / follow ----------------------------------------------------
inline constexpr MetricSpec kIncrementalLines{
    "incremental.lines", MetricKind::kCounter, "lines",
    "lines fed to the incremental analyzer"};
inline constexpr MetricSpec kIncrementalAppsRetired{
    "incremental.apps_retired", MetricKind::kCounter, "apps",
    "terminal applications whose timelines were evicted to a "
    "retired-delays row"};
inline constexpr MetricSpec kFollowPolls{
    "follow.polls", MetricKind::kCounter, "polls",
    "directory polls run by the follow service"};
inline constexpr MetricSpec kFollowBytes{
    "follow.bytes", MetricKind::kCounter, "bytes",
    "appended bytes drained from followed files"};
inline constexpr MetricSpec kFollowStreams{
    "follow.streams", MetricKind::kCounter, "streams",
    "distinct logical streams discovered while following"};
inline constexpr MetricSpec kFollowRotations{
    "follow.rotations", MetricKind::kCounter, "rotations",
    "rotation handoffs observed (`base.log` renamed, fresh base appeared)"};
inline constexpr MetricSpec kFollowAppsRetired{
    "follow.apps_retired", MetricKind::kCounter, "apps",
    "applications retired by follow-mode eviction (mirrors "
    "`incremental.apps_retired` for the service)"};
inline constexpr MetricSpec kFollowTailsChecked{
    "follow.tails_checked", MetricKind::kGauge, "tails",
    "tails whose size the last follow poll examined (parked tails "
    "excluded)"};
inline constexpr MetricSpec kFollowPollLastAgeMs{
    "follow.poll.last_age_ms", MetricKind::kGauge, "ms",
    "age of the most recent follow poll, refreshed whenever `/healthz` "
    "is served"};
inline constexpr MetricSpec kFollowPollStall{
    "follow.poll.stall", MetricKind::kCounter, "probes",
    "`/healthz` probes that found the poll loop stalled past the "
    "threshold (the probe answers 503)"};

// --- observability server ----------------------------------------------------
inline constexpr MetricSpec kObsHttpRequests{
    "obs.http.requests", MetricKind::kCounter, "requests",
    "HTTP requests parsed by the embedded observability server"};
inline constexpr MetricSpec kObsHttpBytes{
    "obs.http.bytes", MetricKind::kCounter, "bytes",
    "response bytes written by the observability server"};
inline constexpr MetricSpec kObsHttpLatencyMs{
    "obs.http.latency_ms.<endpoint>", MetricKind::kHistogram, "ms",
    "per-endpoint request service latency (`metrics`, `analysis`, "
    "`healthz`, `varz`, `other`)"};
inline constexpr MetricSpec kObsHttpErrors{
    "obs.http.errors.<class>", MetricKind::kCounter, "occurrences",
    "failed requests by class (`bad-request`, `bad-method`, `overlong`, "
    "`not-found`, `internal`, `io`, `overload`)"};

// --- thread pool -------------------------------------------------------------
inline constexpr MetricSpec kPoolTasks{
    "pool.tasks", MetricKind::kCounter, "tasks",
    "tasks executed by thread-pool workers and help-while-wait helpers "
    "(all pools in the process)"};
inline constexpr MetricSpec kPoolHelpWhileWait{
    "pool.help_while_wait", MetricKind::kCounter, "tasks",
    "queued tasks a blocked `parallel_for` waiter executed inline instead "
    "of sleeping (nested fan-out on one pool)"};
inline constexpr MetricSpec kPoolQueueDepth{
    "pool.queue_depth", MetricKind::kGauge, "tasks",
    "tasks currently queued across all thread pools"};

// --- fleet -------------------------------------------------------------------
inline constexpr MetricSpec kFleetCorpora{
    "fleet.corpora", MetricKind::kCounter, "corpora",
    "corpora analyzed to completion by fleet mode"};
inline constexpr MetricSpec kFleetCorporaFailed{
    "fleet.corpora_failed", MetricKind::kCounter, "corpora",
    "corpora fleet mode could not analyze (unreadable root, I/O failure)"};
inline constexpr MetricSpec kFleetRegressions{
    "fleet.regressions", MetricKind::kCounter, "components",
    "delay components flagged as significant drift by the fleet "
    "regression gate (`fleet --baseline`)"};

// --- analysis ----------------------------------------------------------------
inline constexpr MetricSpec kAnalyzeApps{
    "analyze.apps", MetricKind::kCounter, "apps", "applications finalized"};
inline constexpr MetricSpec kAnalyzeAnomalies{
    "analyze.anomalies", MetricKind::kCounter, "findings",
    "anomaly findings"};
inline constexpr MetricSpec kAnalyzeShards{
    "analyze.shards", MetricKind::kCounter, "shards",
    "analysis shards run by the sharded finalize (`--analyze-shards`)"};
inline constexpr MetricSpec kSdcDelay{
    "sdc.delay.<component>", MetricKind::kHistogram, "ms",
    "per-component delay samples in ms, one per delay-component catalog "
    "row"};

}  // namespace metric

/// Every catalog row, in doc-table order.
[[nodiscard]] std::span<const MetricSpec> metric_catalog();

/// The row an instrument name belongs to (exact or family match);
/// nullptr for an uncataloged instrument.
[[nodiscard]] const MetricSpec* find_metric_spec(std::string_view instrument);

/// Catalog-checked registration: like MetricsRegistry::global().counter()
/// but the spec must be a catalog row of the right kind — a mismatch
/// throws std::logic_error at the registration point instead of letting
/// an uncataloged name drift into the registry.
Counter& catalog_counter(const MetricSpec& spec);
/// Family registration ("mine.diagnostics." + suffix).
Counter& catalog_counter(const MetricSpec& family, std::string_view suffix);
Gauge& catalog_gauge(const MetricSpec& spec);
Histogram& catalog_histogram(const MetricSpec& spec,
                             std::vector<double> upper_edges =
                                 Histogram::default_latency_edges_ms());
Histogram& catalog_histogram(const MetricSpec& family,
                             std::string_view suffix,
                             std::vector<double> upper_edges =
                                 Histogram::default_latency_edges_ms());

/// Registers every non-family catalog row (zero-valued) in the global
/// registry.  The observability server calls this at start so a
/// `/metrics` scrape always carries the full catalog vocabulary, not
/// just the instruments the process happened to touch first.  Also
/// attaches the thread-pool metric sinks (below), so pool activity shows
/// up in the same scrape for free.
void register_catalog_baseline();

/// Points the common-layer thread pool at the `pool.tasks` /
/// `pool.help_while_wait` / `pool.queue_depth` catalog instruments
/// (common cannot depend on obs, so the wiring runs in this direction).
/// Idempotent; called by register_catalog_baseline and by fleet mode.
void attach_thread_pool_metrics();

/// Renders the docs/OBSERVABILITY.md metric table (markdown, including
/// the header row) from the catalog.  The committed table between the
/// BEGIN/END markers is exactly this output — regenerate with
/// `build/tools/sdlint --metric-table`; sdlint fails on any drift.
[[nodiscard]] std::string render_metric_table();
/// Same rendering over an arbitrary spec list (sdlint fixtures pass
/// deliberately broken catalogs).
[[nodiscard]] std::string render_metric_table(
    std::span<const MetricSpec> specs);

}  // namespace sdc::obs
