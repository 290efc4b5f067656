#include "sdchecker/incremental.hpp"

#include <algorithm>
#include <map>

#include "common/thread_pool.hpp"
#include "obs/metric_catalog.hpp"
#include "obs/metrics.hpp"
#include "obs/tracer.hpp"
#include "sdchecker/parsed_line.hpp"

namespace sdc::checker {

void IncrementalAnalyzer::feed(const std::string& stream,
                               std::string_view line) {
  static obs::Counter& lines_counter =
      obs::catalog_counter(obs::metric::kIncrementalLines);
  lines_counter.add(1);
  // CRLF parity with the batch path: LogBundle/LogView strip the '\r' of
  // CRLF-terminated logs at read time; a tail delivers the raw line.
  if (!line.empty() && line.back() == '\r') line.remove_suffix(1);
  StreamState& state = streams_[stream];
  ++lines_total_;
  const StreamKind kind_before = state.cursor.kind();
  const auto parsed = state.cursor.feed(line);
  if (!parsed) {
    ++lines_unparsed_;
    return;
  }
  // Binding: the first line that reveals an id binds the stream and
  // releases any parked events.
  const bool was_bound = state.bound_app.has_value();
  if (!was_bound) state.bound_app = state.cursor.bound_app();

  extracted_.clear();
  // Instance logs synthesize FIRST_LOG from their first parsed line once
  // the line that reveals the daemon kind arrives.
  if (kind_before == StreamKind::kUnknown) {
    const std::optional<EventKind> first_log = state.cursor.first_log_kind();
    const std::optional<std::int64_t> first_ts =
        state.cursor.first_parsed_ts();
    if (first_log && first_ts) {
      extracted_.push(*first_log, *first_ts, 0, 1, std::nullopt,
                      std::nullopt);
    }
  }
  extract_event_into(*parsed, 0, state.cursor.line_no(), extracted_);
  // Counted here — once per extracted event, bound or not — so
  // `events_total` matches the batch miner, which counts every mined
  // event whether or not it ever attributes.
  events_total_ += extracted_.size();
  for (std::size_t i = 0; i < extracted_.size(); ++i) {
    resolve_or_park(state, extracted_, i);
  }
  if (!was_bound && state.bound_app) flush_parked(state);
}

void IncrementalAnalyzer::feed_all(const std::string& stream,
                                   const std::vector<std::string>& lines) {
  for (const std::string& line : lines) feed(stream, line);
}

void IncrementalAnalyzer::feed_all(const std::string& stream,
                                   std::span<const std::string_view> lines) {
  for (const std::string_view line : lines) feed(stream, line);
}

void IncrementalAnalyzer::resolve_or_park(StreamState& state,
                                          EventBatch& events, std::size_t i) {
  if (!events.has_app(i) && state.bound_app) {
    events.set_app(i, *state.bound_app);
  }
  const auto& container = state.cursor.first_container();
  if (!events.has_container(i) && container &&
      state.cursor.kind() == StreamKind::kExecutor) {
    events.set_container(i, *container);
  }
  if (!events.has_app(i)) {
    // Stream not bound yet: park for later — up to the cap.  A stream
    // that never binds must not grow without bound in a long-running
    // service; past the cap events are dropped, counted, and surfaced as
    // one kUnboundStream diagnostic.
    if (!state.parked) state.parked = std::make_unique<EventBatch>();
    if (options_.parked_events_cap > 0 &&
        state.parked->size() >= options_.parked_events_cap) {
      if (state.parked_dropped++ == 0) {
        state.parked_dropped_first_line = events.line_at(i);
      }
      return;
    }
    state.parked->append_row(events, i);
    return;
  }
  const ApplicationId& app = events.app_at(i);
  if (!retired_.empty() && retired_.contains(app)) {
    // The application's timeline is gone; re-materializing a partial one
    // would diverge from the cached decomposition.
    ++events_late_dropped_;
    return;
  }
  apply_event(timelines_, events, i);
  AppActivity& activity = activity_[app];
  activity.last_tick = tick_;
  if (events.kind_at(i) == EventKind::kAppFinished) activity.terminal = true;
}

void IncrementalAnalyzer::flush_parked(StreamState& state) {
  if (!state.parked) return;
  const std::unique_ptr<EventBatch> parked = std::move(state.parked);
  for (std::size_t i = 0; i < parked->size(); ++i) {
    resolve_or_park(state, *parked, i);
  }
}

std::size_t IncrementalAnalyzer::retire_terminal(std::uint64_t quiet_ticks) {
  static obs::Counter& retired_counter =
      obs::catalog_counter(obs::metric::kIncrementalAppsRetired);
  std::vector<ApplicationId> ready;
  for (const auto& [app, activity] : activity_) {
    if (activity.terminal && tick_ - activity.last_tick >= quiet_ticks) {
      ready.push_back(app);
    }
  }
  std::size_t retired_now = 0;
  for (const ApplicationId& app : ready) {
    const auto it = timelines_.find(app);
    if (it == timelines_.end()) {
      activity_.erase(app);
      continue;
    }
    RetiredApp row;
    row.delays = decompose(it->second);
    detect_anomalies(it->second, row.delays, row.anomalies);
    retired_.emplace(app, std::move(row));
    timelines_.erase(app);
    activity_.erase(app);
    ++retired_now;
  }
  retired_counter.add(retired_now);
  return retired_now;
}

Delays IncrementalAnalyzer::delays_for(const ApplicationId& app) const {
  if (const auto retired = retired_.find(app); retired != retired_.end()) {
    return retired->second.delays;
  }
  const auto it = timelines_.find(app);
  if (it == timelines_.end()) {
    Delays empty;
    empty.app = app;
    return empty;
  }
  return decompose(it->second);
}

AnalysisResult IncrementalAnalyzer::snapshot(
    std::size_t analyze_shards) const {
  const auto span = obs::Tracer::global().span("incremental.snapshot");
  AnalyzeOptions shard_options;
  shard_options.analyze_shards = analyze_shards;
  const std::size_t shards = shard_options.effective_analyze_shards();
  AnalysisResult result;
  if (shards > 1) {
    // Route a copy of the live table into per-shard tables (the same
    // partition group_events_sharded produces) and finalize in parallel.
    ShardedGroupResult grouped;
    grouped.shards.resize(shards);
    for (const auto& [app, timeline] : timelines_) {
      grouped.shards[timeline_shard(app, shards)][app] = timeline;
    }
    ThreadPool pool(shards);
    result = finalize_analysis(std::move(grouped), pool, retired_);
  } else {
    std::map<ApplicationId, AppTimeline> ordered;
    for (const auto& [app, timeline] : timelines_) ordered[app] = timeline;
    result = finalize_analysis(std::move(ordered), retired_);
  }
  result.lines_total = lines_total_;
  result.lines_unparsed = lines_unparsed_;
  result.events_total = events_total_;
  result.events_unattributed = events_pending();
  result.diagnostics = diagnostics();
  result.diag_counts = logging::count_diagnostics(result.diagnostics);
  logging::sort_diagnostics(result.diagnostics);
  return result;
}

std::vector<logging::Diagnostic> IncrementalAnalyzer::diagnostics() const {
  // The stream table is unordered and reports are per-stream in name
  // order: render every stream where it stands, then sort only the
  // (few) streams that rendered a record.
  struct Rendered {
    const std::string* stream;
    std::size_t begin;
    std::size_t end;
  };
  std::vector<logging::Diagnostic> records;
  std::vector<Rendered> rendered;
  for (const auto& [name, state] : streams_) {
    const std::size_t begin = records.size();
    state.cursor.render(name, records);
    if (state.parked_dropped > 0) {
      records.push_back(logging::Diagnostic{
          logging::DiagnosticKind::kUnboundStream, name,
          state.parked_dropped_first_line, state.parked_dropped,
          "stream never bound to an application id; parked-event cap (" +
              std::to_string(options_.parked_events_cap) +
              ") exceeded, event(s) dropped"});
    }
    if (records.size() > begin) {
      rendered.push_back(Rendered{&name, begin, records.size()});
    }
  }
  std::sort(rendered.begin(), rendered.end(),
            [](const Rendered& a, const Rendered& b) {
              return *a.stream < *b.stream;
            });
  std::vector<logging::Diagnostic> out;
  out.reserve(records.size());
  for (const Rendered& stream : rendered) {
    for (std::size_t i = stream.begin; i < stream.end; ++i) {
      out.push_back(std::move(records[i]));
    }
  }
  return out;
}

bool IncrementalAnalyzer::stream_retired(std::string_view stream) const {
  const auto it = streams_.find(stream);
  if (it == streams_.end()) return false;
  const StreamState& state = it->second;
  const StreamKind kind = state.cursor.kind();
  return (kind == StreamKind::kDriver || kind == StreamKind::kExecutor) &&
         state.bound_app && retired_.contains(*state.bound_app);
}

std::size_t IncrementalAnalyzer::events_pending() const {
  std::size_t n = 0;
  for (const auto& [name, state] : streams_) {
    n += (state.parked ? state.parked->size() : 0) + state.parked_dropped;
  }
  return n;
}

}  // namespace sdc::checker
