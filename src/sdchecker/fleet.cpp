#include "sdchecker/fleet.hpp"

#include <algorithm>
#include <atomic>
#include <fstream>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <thread>
#include <utility>

#include "common/json.hpp"
#include "common/mutex.hpp"
#include "common/thread_annotations.hpp"
#include "common/thread_pool.hpp"
#include "logging/diagnostics.hpp"
#include "obs/json_parse.hpp"
#include "obs/metric_catalog.hpp"
#include "obs/tracer.hpp"
#include "sdchecker/export.hpp"
#include "sdchecker/grouping.hpp"
#include "sdchecker/miner.hpp"
#include "sdchecker/sdchecker.hpp"

namespace sdc::checker {
namespace {

struct FleetCounters {
  obs::Counter& corpora;
  obs::Counter& failed;
  obs::Counter& streams;
  obs::Counter& events;
  static const FleetCounters& get() {
    static const FleetCounters counters{
        obs::catalog_counter(obs::metric::kFleetCorpora),
        obs::catalog_counter(obs::metric::kFleetCorporaFailed),
        obs::catalog_counter(obs::metric::kMineStreams),
        obs::catalog_counter(obs::metric::kMineEvents)};
    return counters;
  }
};

/// All in-flight state of one corpus.  Lifecycle: an "open" task builds
/// the view and the MinePlan and enqueues one task per chunk; each chunk
/// task that empties its stream's countdown stitches that stream and
/// folds its events into the sharded grouping tables; the task that
/// empties the stream countdown finalizes the corpus — all on the one
/// shared pool, no barriers between the phases.
struct CorpusState {
  std::filesystem::path dir;
  MinerOptions mine_options;
  std::size_t shard_count = 1;

  std::vector<logging::Diagnostic> io_diagnostics;
  std::optional<logging::BundleView> view;
  std::optional<MinePlan> plan;

  /// Countdowns to "stream fully mined" / "corpus fully stitched".  The
  /// acq_rel fetch_sub chains publish every chunk's output to whichever
  /// thread observes the last decrement and proceeds.
  std::unique_ptr<std::atomic<std::size_t>[]> chunks_left;
  std::atomic<std::size_t> streams_left{0};

  struct StreamMeta {
    std::size_t lines_total = 0;
    std::size_t lines_unparsed = 0;
    std::size_t events = 0;
    std::vector<logging::Diagnostic> diagnostics;
    logging::DiagnosticCounts diag_counts;
  };
  /// Slot s is written only by the thread that stitched stream s.
  std::vector<StreamMeta> streams;

  /// One grouping table per shard.  A shard's lock is held for one
  /// batch application at a time, so two streams finishing close
  /// together contend per shard, not per corpus.
  struct Shard {
    Mutex mu;
    AppTable apps SDC_GUARDED_BY(mu);
  };
  std::vector<std::unique_ptr<Shard>> shards;
  std::atomic<std::size_t> unattributed{0};

  Mutex error_mu;
  std::string error SDC_GUARDED_BY(error_mu);
  std::atomic<bool> failed{false};

  CorpusResult out;

  void fail(const std::string& what) {
    {
      MutexLock lock(error_mu);
      if (error.empty()) error = what;
    }
    failed.store(true, std::memory_order_release);
  }
  [[nodiscard]] std::string take_error() {
    MutexLock lock(error_mu);
    return error;
  }
};

/// Runs on the thread that saw the corpus's last stream complete.
/// Assembles the AnalysisResult exactly as `SdChecker::analyze_directory`
/// does — grouping tables through `finalize_analysis` (whose nested
/// `parallel_for` help-while-waits on the shared pool), I/O diagnostics
/// first, stream diagnostics in stream (= logical name) order, then the
/// severity sort — so `analysis_json` is byte-identical to standalone
/// `analyze --json`.
void finalize_corpus(CorpusState& state, ThreadPool& pool) {
  const FleetCounters& counters = FleetCounters::get();
  if (state.failed.load(std::memory_order_acquire)) {
    state.out.error = state.take_error();
    counters.failed.add(1);
    state.plan.reset();
    state.view.reset();
    return;
  }
  try {
    ShardedGroupResult grouped;
    grouped.shards.reserve(state.shards.size());
    for (const std::unique_ptr<CorpusState::Shard>& shard : state.shards) {
      MutexLock lock(shard->mu);
      grouped.shards.push_back(std::move(shard->apps));
    }
    grouped.unattributed =
        state.unattributed.load(std::memory_order_relaxed);
    const std::size_t unattributed = grouped.unattributed;
    AnalysisResult result = finalize_analysis(std::move(grouped), pool);
    result.events_unattributed = unattributed;

    for (const logging::Diagnostic& diagnostic : state.io_diagnostics) {
      result.diag_counts.add(diagnostic);
    }
    result.diagnostics = std::move(state.io_diagnostics);
    std::size_t events_total = 0;
    for (CorpusState::StreamMeta& meta : state.streams) {
      result.lines_total += meta.lines_total;
      result.lines_unparsed += meta.lines_unparsed;
      events_total += meta.events;
      for (logging::Diagnostic& diagnostic : meta.diagnostics) {
        // The mine.diagnostics counters cover stream findings only (I/O
        // findings are bundle-level), matching the batch miner.
        obs::catalog_counter(obs::metric::kMineDiagnostics,
                             logging::diagnostic_kind_name(diagnostic.kind))
            .add(diagnostic.count);
        result.diagnostics.push_back(std::move(diagnostic));
      }
      result.diag_counts += meta.diag_counts;
    }
    result.events_total = events_total;
    logging::sort_diagnostics(result.diagnostics);

    counters.streams.add(state.streams.size());
    counters.events.add(events_total);

    state.out.apps = result.timelines.size();
    state.out.events = events_total;
    state.out.lines = result.lines_total;
    state.out.diagnostics = result.diagnostics.size();
    state.out.analysis_json = analysis_json(result);
    state.out.components = component_histograms(result);
    counters.corpora.add(1);
  } catch (const std::exception& e) {
    state.fail(e.what());
    state.out.error = state.take_error();
    counters.failed.add(1);
  }
  // Drop the mmapped views and chunk slots as soon as the corpus is
  // rendered — with many corpora in flight this bounds peak memory to
  // the active set, not the fleet.
  state.plan.reset();
  state.view.reset();
}

void run_corpus_chunk(CorpusState& state, ThreadPool& pool,
                      std::size_t chunk) {
  if (!state.failed.load(std::memory_order_relaxed)) {
    try {
      state.plan->run_chunk(chunk);
    } catch (const std::exception& e) {
      state.fail(e.what());
    }
  }
  const std::size_t stream = state.plan->stream_of(chunk);
  if (state.chunks_left[stream].fetch_sub(1, std::memory_order_acq_rel) !=
      1) {
    return;
  }
  // This chunk completed its stream: stitch it and hand its events to
  // grouping now, while other chunks (of this corpus and others) are
  // still mining — the pipelined mine→analyze overlap.
  if (!state.failed.load(std::memory_order_acquire)) {
    try {
      const auto span = obs::Tracer::global().span("mine.stitch");
      MinedStream stitched = state.plan->stitch(stream);
      for (std::size_t s = 0; s < state.shard_count; ++s) {
        std::size_t unattributed = 0;
        {
          MutexLock lock(state.shards[s]->mu);
          unattributed = apply_batch_to_shard(
              stitched.events, state.shards[s]->apps, s, state.shard_count);
        }
        if (s == 0) {
          state.unattributed.fetch_add(unattributed,
                                       std::memory_order_relaxed);
        }
      }
      CorpusState::StreamMeta& meta = state.streams[stream];
      meta.lines_total = stitched.lines_total;
      meta.lines_unparsed = stitched.lines_unparsed;
      meta.events = stitched.events.size();
      meta.diagnostics = std::move(stitched.diagnostics);
      meta.diag_counts = stitched.diag_counts;
    } catch (const std::exception& e) {
      state.fail(e.what());
    }
  }
  if (state.streams_left.fetch_sub(1, std::memory_order_acq_rel) == 1) {
    finalize_corpus(state, pool);
  }
}

void open_corpus(CorpusState& state, ThreadPool& pool) {
  try {
    state.view.emplace(logging::BundleView::read_from_directory(
        state.dir, &state.io_diagnostics));
    state.plan.emplace(*state.view, state.mine_options);
  } catch (const std::exception& e) {
    state.fail(e.what());
    finalize_corpus(state, pool);
    return;
  }
  const std::size_t streams = state.plan->stream_count();
  state.streams.resize(streams);
  state.shards.reserve(state.shard_count);
  for (std::size_t s = 0; s < state.shard_count; ++s) {
    state.shards.push_back(std::make_unique<CorpusState::Shard>());
  }
  if (streams == 0) {
    finalize_corpus(state, pool);
    return;
  }
  state.chunks_left = std::make_unique<std::atomic<std::size_t>[]>(streams);
  for (std::size_t s = 0; s < streams; ++s) {
    state.chunks_left[s].store(state.plan->chunks_of(s),
                               std::memory_order_relaxed);
  }
  state.streams_left.store(streams, std::memory_order_release);
  const std::size_t chunks = state.plan->chunk_count();
  for (std::size_t c = 0; c < chunks; ++c) {
    pool.submit([&state, &pool, c] { run_corpus_chunk(state, pool, c); });
  }
}

void write_components_json(json::Writer& w,
                           const std::vector<ComponentHistogram>& components) {
  w.begin_array();
  for (const ComponentHistogram& component : components) {
    w.begin_object();
    w.field("metric", component.metric);
    w.field("count", static_cast<std::int64_t>(component.count));
    w.field("sum_ms", component.sum_ms);
    w.key("buckets").begin_array();
    for (const std::uint64_t bucket : component.buckets) {
      w.value(static_cast<std::int64_t>(bucket));
    }
    w.end_array();
    w.end_object();
  }
  w.end_array();
}

}  // namespace

std::vector<std::filesystem::path> discover_corpora(
    const std::filesystem::path& root) {
  if (!std::filesystem::is_directory(root)) {
    throw std::runtime_error("fleet: not a directory: " + root.string());
  }
  std::vector<std::filesystem::path> out;
  for (const auto& entry : std::filesystem::directory_iterator(root)) {
    if (entry.is_directory()) out.push_back(entry.path());
  }
  std::sort(out.begin(), out.end());
  return out;
}

FleetResult analyze_fleet(const std::vector<std::filesystem::path>& corpora,
                          const FleetOptions& options) {
  const auto total_span = obs::Tracer::global().span("fleet.total");
  std::size_t threads = options.threads;
  if (threads == 0) {
    const unsigned hw = std::thread::hardware_concurrency();
    threads = hw == 0 ? 1 : hw;
  }
  std::size_t shard_count = options.shards_per_corpus;
  if (shard_count == 0) shard_count = std::min<std::size_t>(threads, 8);

  std::vector<std::unique_ptr<CorpusState>> states;
  states.reserve(corpora.size());
  for (const std::filesystem::path& dir : corpora) {
    auto state = std::make_unique<CorpusState>();
    state->dir = dir;
    state->mine_options = MinerOptions{.threads = threads,
                                       .shard_grain = options.shard_grain};
    state->shard_count = shard_count;
    state->out.name = dir.filename().string();
    state->out.dir = dir;
    states.push_back(std::move(state));
  }

  {
    ThreadPool pool(threads);
    for (const std::unique_ptr<CorpusState>& state : states) {
      CorpusState* raw = state.get();
      pool.submit([raw, &pool] { open_corpus(*raw, pool); });
    }
    pool.wait_idle();
  }

  FleetResult result;
  result.threads = threads;
  result.shards_per_corpus = shard_count;
  result.corpora.reserve(states.size());
  for (std::unique_ptr<CorpusState>& state : states) {
    result.corpora.push_back(std::move(state->out));
  }
  // Fleet-wide distributions: per-component sums over every successful
  // corpus (components share one spec order, but match by name so a
  // partially-failed fleet still sums correctly).
  for (const CorpusResult& corpus : result.corpora) {
    if (!corpus.error.empty()) continue;
    if (result.components.empty()) {
      result.components = corpus.components;
      continue;
    }
    for (ComponentHistogram& total : result.components) {
      const auto match = std::find_if(
          corpus.components.begin(), corpus.components.end(),
          [&](const ComponentHistogram& h) { return h.metric == total.metric; });
      if (match == corpus.components.end()) continue;
      total.count += match->count;
      total.sum_ms += match->sum_ms;
      const std::size_t n = std::min(total.buckets.size(),
                                     match->buckets.size());
      for (std::size_t i = 0; i < n; ++i) {
        total.buckets[i] += match->buckets[i];
      }
    }
  }
  return result;
}

FleetResult analyze_fleet(const std::filesystem::path& root,
                          const FleetOptions& options) {
  return analyze_fleet(discover_corpora(root), options);
}

std::size_t FleetResult::failed() const {
  std::size_t count = 0;
  for (const CorpusResult& corpus : corpora) {
    if (!corpus.error.empty()) ++count;
  }
  return count;
}

std::string FleetResult::summary_json() const {
  std::size_t apps = 0;
  std::size_t events = 0;
  std::size_t lines = 0;
  std::size_t diagnostics = 0;
  for (const CorpusResult& corpus : corpora) {
    apps += corpus.apps;
    events += corpus.events;
    lines += corpus.lines;
    diagnostics += corpus.diagnostics;
  }

  json::Writer w;
  w.begin_object();
  w.key("fleet").begin_object();
  w.field("corpora", static_cast<std::int64_t>(corpora.size()));
  w.field("failed", static_cast<std::int64_t>(failed()));
  w.field("threads", static_cast<std::int64_t>(threads));
  w.field("shards_per_corpus", static_cast<std::int64_t>(shards_per_corpus));
  w.field("apps", static_cast<std::int64_t>(apps));
  w.field("events", static_cast<std::int64_t>(events));
  w.field("lines", static_cast<std::int64_t>(lines));
  w.field("diagnostics", static_cast<std::int64_t>(diagnostics));
  w.end_object();
  w.key("bucket_edges_ms").begin_array();
  for (const double edge : component_bucket_edges_ms()) w.value(edge);
  w.end_array();
  w.key("components");
  write_components_json(w, components);
  w.key("corpora").begin_array();
  for (const CorpusResult& corpus : corpora) {
    w.begin_object();
    w.field("name", corpus.name);
    w.field("dir", corpus.dir.string());
    if (!corpus.error.empty()) w.field("error", corpus.error);
    w.field("apps", static_cast<std::int64_t>(corpus.apps));
    w.field("events", static_cast<std::int64_t>(corpus.events));
    w.field("lines", static_cast<std::int64_t>(corpus.lines));
    w.field("diagnostics", static_cast<std::int64_t>(corpus.diagnostics));
    w.key("components");
    write_components_json(w, corpus.components);
    w.end_object();
  }
  w.end_array();
  w.end_object();
  return w.take();
}

std::optional<std::vector<ComponentHistogram>> load_fleet_baseline(
    const std::filesystem::path& file, std::string* error) {
  const auto set_error = [error](std::string what) {
    if (error != nullptr) *error = std::move(what);
  };
  std::ifstream in(file);
  if (!in) {
    set_error("cannot read " + file.string());
    return std::nullopt;
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();

  obs::JsonValue doc;
  std::string parse_error;
  if (!obs::parse_json(buffer.str(), doc, parse_error)) {
    set_error(file.string() + ": " + parse_error);
    return std::nullopt;
  }
  const obs::JsonObject* root = doc.object();
  const obs::JsonValue* components =
      root != nullptr ? obs::json_find(*root, "components") : nullptr;
  const obs::JsonArray* array =
      components != nullptr ? components->array() : nullptr;
  if (array == nullptr) {
    set_error(file.string() + ": no \"components\" array");
    return std::nullopt;
  }

  std::vector<ComponentHistogram> out;
  for (const obs::JsonValue& entry : *array) {
    const obs::JsonObject* object = entry.object();
    if (object == nullptr) {
      set_error(file.string() + ": component entry is not an object");
      return std::nullopt;
    }
    ComponentHistogram hist;
    const obs::JsonValue* metric = obs::json_find(*object, "metric");
    const obs::JsonValue* count = obs::json_find(*object, "count");
    const obs::JsonValue* sum_ms = obs::json_find(*object, "sum_ms");
    const obs::JsonValue* buckets = obs::json_find(*object, "buckets");
    if (metric == nullptr || metric->string() == nullptr ||
        count == nullptr || count->number() == nullptr ||
        sum_ms == nullptr || sum_ms->number() == nullptr ||
        buckets == nullptr || buckets->array() == nullptr) {
      set_error(file.string() + ": malformed component entry");
      return std::nullopt;
    }
    hist.metric = *metric->string();
    hist.count = static_cast<std::uint64_t>(*count->number());
    hist.sum_ms = *sum_ms->number();
    for (const obs::JsonValue& bucket : *buckets->array()) {
      if (bucket.number() == nullptr) {
        set_error(file.string() + ": non-numeric bucket count");
        return std::nullopt;
      }
      hist.buckets.push_back(static_cast<std::uint64_t>(*bucket.number()));
    }
    out.push_back(std::move(hist));
  }
  return out;
}

}  // namespace sdc::checker
