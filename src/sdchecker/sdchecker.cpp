#include "sdchecker/sdchecker.hpp"

#include <algorithm>
#include <optional>
#include <stdexcept>
#include <thread>

#include "common/thread_pool.hpp"
#include "obs/metric_catalog.hpp"
#include "obs/metrics.hpp"
#include "obs/tracer.hpp"

namespace sdc::checker {
namespace {

struct FinalizeCounters {
  obs::Counter& apps;
  obs::Counter& anomalies;
  static const FinalizeCounters& get() {
    static const FinalizeCounters counters{
        obs::catalog_counter(obs::metric::kAnalyzeApps),
        obs::catalog_counter(obs::metric::kAnalyzeAnomalies)};
    return counters;
  }
};

/// Aggregates over timelines already in app-ID order.  `decomposed` /
/// `found` are the per-app decomposition and anomaly outputs,
/// index-aligned with the iteration order of `result.timelines`.
/// Merging is serial and ordered, so every aggregate SampleSet and the
/// anomaly list are filled in the same order for any pool.  `retired`
/// rows (evicted timelines, apps disjoint from the live set) are spliced
/// in at their app-ID position, which keeps the aggregate fold order —
/// and therefore the floating-point sums and the rendered report —
/// identical to a run where every timeline were still resident.
void merge_finalized(AnalysisResult& result, std::vector<Delays> decomposed,
                     std::vector<std::vector<Anomaly>> found,
                     const RetiredTable& retired) {
  auto next_retired = retired.begin();
  const auto fold_retired_before = [&](const ApplicationId* app) {
    while (next_retired != retired.end() &&
           (app == nullptr || next_retired->first < *app)) {
      const RetiredApp& row = next_retired->second;
      for (const Anomaly& anomaly : row.anomalies) {
        result.anomalies.push_back(anomaly);
      }
      result.aggregate.add(row.delays);
      result.delays.emplace_hint(result.delays.end(), next_retired->first,
                                 row.delays);
      ++next_retired;
    }
  };
  std::size_t i = 0;
  for (const auto& [app, timeline] : result.timelines) {
    fold_retired_before(&app);
    for (Anomaly& anomaly : found[i]) {
      result.anomalies.push_back(std::move(anomaly));
    }
    result.aggregate.add(decomposed[i]);
    result.delays.emplace_hint(result.delays.end(), app,
                               std::move(decomposed[i]));
    ++i;
  }
  fold_retired_before(nullptr);
  const FinalizeCounters& counters = FinalizeCounters::get();
  counters.apps.add(result.timelines.size() + retired.size());
  counters.anomalies.add(result.anomalies.size());
}

}  // namespace

std::size_t AnalyzeOptions::effective_analyze_shards() const {
  if (analyze_shards != 0) return analyze_shards;
  const std::size_t hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : hw;
}

SchedulingGraph AnalysisResult::graph_for(const ApplicationId& app) const {
  const auto it = timelines.find(app);
  if (it == timelines.end()) {
    throw std::invalid_argument("no timeline for application " + app.str());
  }
  return SchedulingGraph::build(it->second);
}

std::vector<const Anomaly*> AnalysisResult::anomalies_of(
    AnomalyType type) const {
  std::vector<const Anomaly*> out;
  for (const Anomaly& anomaly : anomalies) {
    if (anomaly.type == type) out.push_back(&anomaly);
  }
  return out;
}

AnalysisResult SdChecker::analyze(const logging::LogBundle& bundle) const {
  return run(MinePlan(bundle, options_.miner_options()), make_pool());
}

AnalysisResult SdChecker::analyze_directory(
    const std::filesystem::path& dir) const {
  std::unique_ptr<ThreadPool> pool = make_pool();
  MinePlan plan(dir, options_.miner_options(), pool.get());
  return run(std::move(plan), std::move(pool));
}

std::unique_ptr<ThreadPool> SdChecker::make_pool() const {
  const std::size_t workers =
      std::max(options_.threads, options_.effective_analyze_shards());
  return workers > 1 ? std::make_unique<ThreadPool>(workers) : nullptr;
}

AnalysisResult SdChecker::run(MinePlan plan,
                              std::unique_ptr<ThreadPool> pool) const {
  std::optional<CorpusPipeline> pipeline;
  {
    // The caller waits for the pool only inside this span, so a trace
    // attributes none of the wait to the caller's own work.
    const auto span = obs::Tracer::global().span("mine.total");
    pipeline.emplace(std::move(plan));
    const auto run_chunk = [&pipeline](std::size_t chunk) {
      pipeline->run_chunk(chunk);
    };
    if (pool) {
      parallel_for(*pool, pipeline->chunk_count(), run_chunk);
    } else {
      for (std::size_t c = 0; c < pipeline->chunk_count(); ++c) run_chunk(c);
    }
  }
  AnalysisResult result = pipeline->finish(pool.get());
  {
    const auto span = obs::Tracer::global().span("analyze.teardown");
    pipeline.reset();
    pool.reset();
  }
  return result;
}

std::vector<AnalysisResult::Completeness> AnalysisResult::completeness()
    const {
  static constexpr EventKind kTable1[] = {
      EventKind::kAppSubmitted,       EventKind::kAppAccepted,
      EventKind::kAttemptRegistered,  EventKind::kContainerAllocated,
      EventKind::kContainerAcquired,  EventKind::kNmLocalizing,
      EventKind::kNmScheduled,        EventKind::kNmRunning,
      EventKind::kDriverFirstLog,     EventKind::kDriverRegister,
      EventKind::kStartAllo,          EventKind::kEndAllo,
      EventKind::kExecutorFirstLog,   EventKind::kExecutorFirstTask,
  };
  std::vector<Completeness> out;
  out.reserve(std::size(kTable1));
  for (const EventKind kind : kTable1) {
    Completeness row;
    row.kind = kind;
    out.push_back(row);
  }
  // One pass over apps: each timeline contributes two presence bitsets
  // (its own events, the union of its containers'), and every Table-I
  // row is a single bit test against the matching mask.
  for (const auto& [app, timeline] : timelines) {
    const std::uint32_t app_mask = timeline.first_ts.present_mask();
    const std::uint32_t container_mask = timeline.container_present_mask();
    for (std::size_t i = 0; i < std::size(kTable1); ++i) {
      const std::uint32_t mask =
          is_container_event(kTable1[i]) ? container_mask : app_mask;
      if ((mask & (1u << static_cast<std::uint32_t>(kTable1[i]))) == 0) {
        ++out[i].apps_missing;
      }
    }
  }
  return out;
}

std::string AnalysisResult::render_completeness() const {
  std::string out;
  char buf[96];
  for (const Completeness& row : completeness()) {
    if (row.apps_missing == 0) continue;
    std::snprintf(buf, sizeof(buf),
                  "  message %2d (%s): missing in %zu of %zu apps\n",
                  table1_number(row.kind),
                  std::string(event_name(row.kind)).c_str(), row.apps_missing,
                  timelines.size());
    out += buf;
  }
  out += render_diagnostics();
  return out;
}

std::string AnalysisResult::render_diagnostics() const {
  std::string out;
  for (const logging::Diagnostic& diagnostic : diagnostics) {
    out += "  ";
    out += logging::render_diagnostic(diagnostic);
    out += '\n';
  }
  return out;
}

AnalysisResult finalize_analysis(AppTable apps, ThreadPool* pool,
                                 const RetiredTable& retired) {
  const auto span = obs::Tracer::global().span("analyze.finalize");
  AnalysisResult result;
  {
    // Move the unordered table into the result's sorted map.
    const auto merge_span = obs::Tracer::global().span("analyze.merge");
    std::vector<std::pair<ApplicationId, AppTimeline*>> sorted;
    sorted.reserve(apps.size());
    for (auto& [app, timeline] : apps) sorted.emplace_back(app, &timeline);
    std::sort(sorted.begin(), sorted.end(),
              [](const auto& a, const auto& b) { return a.first < b.first; });
    for (auto& [app, timeline] : sorted) {
      result.timelines.emplace_hint(result.timelines.end(), app,
                                    std::move(*timeline));
    }
  }

  // Per-app decomposition + anomaly detection is embarrassingly parallel
  // (the paper's components never cross applications); results land in
  // index-aligned vectors so the ordered merge below stays serial.
  const std::size_t n = result.timelines.size();
  std::vector<const AppTimeline*> order;
  order.reserve(n);
  for (const auto& [app, timeline] : result.timelines) {
    order.push_back(&timeline);
  }
  std::vector<Delays> decomposed(n);
  std::vector<std::vector<Anomaly>> found(n);
  const auto finalize_app = [&](std::size_t i) {
    decomposed[i] = decompose(*order[i]);
    detect_anomalies(*order[i], decomposed[i], found[i]);
  };
  if (pool != nullptr) {
    parallel_for(*pool, n, finalize_app);
  } else {
    for (std::size_t i = 0; i < n; ++i) finalize_app(i);
  }

  {
    const auto merge_span = obs::Tracer::global().span("analyze.merge");
    merge_finalized(result, std::move(decomposed), std::move(found), retired);
  }
  return result;
}

CorpusPipeline::CorpusPipeline(MinePlan plan)
    : plan_(std::move(plan)),
      streams_(plan_.stream_count()),
      ranges_left_(
          std::make_unique<std::atomic<std::size_t>[]>(plan_.stream_count())),
      streams_left_(plan_.stream_count()) {
  for (std::size_t s = 0; s < plan_.stream_count(); ++s) {
    ranges_left_[s].store(plan_.ranges_of(s), std::memory_order_relaxed);
  }
}

bool CorpusPipeline::run_chunk(std::size_t chunk) {
  const auto fail = [this] {
    if (!failed_.exchange(true, std::memory_order_acq_rel)) {
      error_ = std::current_exception();
    }
  };
  if (!failed_.load(std::memory_order_relaxed)) {
    try {
      plan_.run_chunk(chunk);
    } catch (...) {
      fail();
    }
  }
  bool completed_corpus = false;
  for (const std::size_t stream : plan_.streams_of(chunk)) {
    if (ranges_left_[stream].fetch_sub(1, std::memory_order_acq_rel) != 1) {
      continue;
    }
    // This chunk completed the stream: stitch it and hand its events to
    // grouping now, while other chunks are still mining.
    if (!failed_.load(std::memory_order_acquire)) {
      try {
        stitch_and_group(stream);
      } catch (...) {
        fail();
      }
    }
    if (streams_left_.fetch_sub(1, std::memory_order_acq_rel) == 1) {
      completed_corpus = true;
    }
  }
  return completed_corpus;
}

void CorpusPipeline::stitch_and_group(std::size_t stream) {
  StreamMeta& meta = streams_[stream];
  std::optional<MinedStream> stitched = [&] {
    const auto span = obs::Tracer::global().span("mine.stitch");
    return plan_.stitch(stream, meta.unreadable);
  }();
  if (!stitched) return;
  {
    const auto span = obs::Tracer::global().span("analyze.group");
    const EventBatch& events = stitched->events;
    MutexLock lock(mu_);
    for (std::size_t i = 0; i < events.size(); ++i) {
      if (!apply_event(apps_, events, i)) ++unattributed_;
    }
  }
  meta.mined = true;
  meta.lines_total = stitched->lines_total;
  meta.lines_unparsed = stitched->lines_unparsed;
  meta.events = stitched->events.size();
  meta.diagnostics = std::move(stitched->diagnostics);
  meta.diag_counts = stitched->diag_counts;
}

AnalysisResult CorpusPipeline::finish(ThreadPool* pool) {
  if (failed_.load(std::memory_order_acquire)) std::rethrow_exception(error_);
  static obs::Counter& streams_counter =
      obs::catalog_counter(obs::metric::kMineStreams);
  static obs::Counter& events_counter =
      obs::catalog_counter(obs::metric::kMineEvents);

  AppTable apps;
  std::size_t unattributed = 0;
  {
    MutexLock lock(mu_);
    apps = std::move(apps_);
    unattributed = unattributed_;
  }
  AnalysisResult result = finalize_analysis(std::move(apps), pool);
  const auto span = obs::Tracer::global().span("analyze.assemble");
  // Each application's delays are observed once, here, and not by the
  // fold, which a follow snapshot reruns over every application it holds.
  for (const auto& [app, delays] : result.delays) observe_delays(delays);
  result.events_unattributed = unattributed;

  std::size_t streams_mined = 0;
  for (StreamMeta& meta : streams_) {
    for (logging::Diagnostic& diagnostic : meta.unreadable) {
      result.diag_counts.add(diagnostic);
      result.diagnostics.push_back(std::move(diagnostic));
    }
    if (!meta.mined) continue;
    ++streams_mined;
    result.lines_total += meta.lines_total;
    result.lines_unparsed += meta.lines_unparsed;
    result.events_total += meta.events;
    for (logging::Diagnostic& diagnostic : meta.diagnostics) {
      // The mine.diagnostics counters cover stream findings only
      // (unreadable files are bundle-level); this is their one count.
      obs::catalog_counter(obs::metric::kMineDiagnostics,
                           logging::diagnostic_kind_name(diagnostic.kind))
          .add(diagnostic.count);
      result.diagnostics.push_back(std::move(diagnostic));
    }
    result.diag_counts += meta.diag_counts;
  }
  // Report order is severity-then-class, independent of thread count;
  // the mining layer itself keeps discovery order.
  logging::sort_diagnostics(result.diagnostics);
  streams_counter.add(streams_mined);
  events_counter.add(result.events_total);
  return result;
}

}  // namespace sdc::checker
