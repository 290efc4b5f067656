#include "sdchecker/fleet.hpp"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <memory>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <thread>
#include <utility>

#include "common/json.hpp"
#include "common/thread_pool.hpp"
#include "obs/json_parse.hpp"
#include "obs/metric_catalog.hpp"
#include "obs/tracer.hpp"
#include "sdchecker/export.hpp"
#include "sdchecker/sdchecker.hpp"

namespace sdc::checker {
namespace {

struct FleetCounters {
  obs::Counter& corpora;
  obs::Counter& failed;
  static const FleetCounters& get() {
    static const FleetCounters counters{
        obs::catalog_counter(obs::metric::kFleetCorpora),
        obs::catalog_counter(obs::metric::kFleetCorporaFailed)};
    return counters;
  }
};

/// One corpus in flight.  An "open" task lists the directory, builds the
/// corpus's `CorpusPipeline` and enqueues one task per chunk; the chunk
/// task that completes the corpus's last stream finishes it — all on the
/// one shared pool, no barriers between the phases and no task waiting
/// on another.
struct CorpusState {
  std::filesystem::path dir;
  std::optional<CorpusPipeline> pipeline;
  CorpusResult out;
};

/// Runs on the worker that completed the corpus and finalizes it there:
/// the other workers stay busy with other corpora's chunks.
void finish_corpus(CorpusState& state) {
  const FleetCounters& counters = FleetCounters::get();
  try {
    const AnalysisResult result = state.pipeline->finish(nullptr);
    state.out.apps = result.timelines.size();
    state.out.events = result.events_total;
    state.out.lines = result.lines_total;
    state.out.diagnostics = result.diagnostics.size();
    state.out.analysis_json = analysis_json(result);
    state.out.components = component_histograms(result);
    counters.corpora.add(1);
  } catch (const std::exception& e) {
    state.out.error = e.what();
    counters.failed.add(1);
  }
  // Drop the application table as soon as the corpus is rendered — with
  // many corpora in flight this bounds peak memory to the active set,
  // not the fleet.
  state.pipeline.reset();
}

void open_corpus(CorpusState& state, ThreadPool& pool,
                 const MinerOptions& options) {
  try {
    state.pipeline.emplace(MinePlan(state.dir, options));
  } catch (const std::exception& e) {
    state.out.error = e.what();
    FleetCounters::get().failed.add(1);
    return;
  }
  const std::size_t chunks = state.pipeline->chunk_count();
  if (chunks == 0) {
    finish_corpus(state);
    return;
  }
  for (std::size_t c = 0; c < chunks; ++c) {
    pool.submit([&state, c] {
      if (state.pipeline->run_chunk(c)) finish_corpus(state);
    });
  }
}

/// A JSON number that is an exact observation count: a non-negative
/// integer no larger than 2^53, the last integer a double holds exactly.
/// Anything else (absent, negative, fractional, too large) is nullopt,
/// so no out-of-range double is ever cast to an unsigned count.
std::optional<std::uint64_t> json_count(const obs::JsonValue* value) {
  const double* number = value != nullptr ? value->number() : nullptr;
  if (number == nullptr || !(*number >= 0) || *number > 9007199254740992.0 ||
      std::floor(*number) != *number) {
    return std::nullopt;
  }
  return static_cast<std::uint64_t>(*number);
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

  const MinerOptions mine_options{.threads = threads};
  std::vector<std::unique_ptr<CorpusState>> states;
  states.reserve(corpora.size());
  for (const std::filesystem::path& dir : corpora) {
    auto state = std::make_unique<CorpusState>();
    state->dir = dir;
    state->out.name = dir.filename().string();
    state->out.dir = dir;
    states.push_back(std::move(state));
  }

  // The first metric lookup creates the registry, which attaches the
  // pool's `pool.*` sinks: look up before the pool takes its first task.
  static_cast<void>(FleetCounters::get());
  {
    ThreadPool pool(threads);
    for (const std::unique_ptr<CorpusState>& state : states) {
      CorpusState* raw = state.get();
      pool.submit([raw, &pool, &mine_options] {
        open_corpus(*raw, pool, mine_options);
      });
    }
    pool.wait_idle();
  }

  FleetResult result;
  result.threads = threads;
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
    const std::optional<std::uint64_t> count =
        json_count(obs::json_find(*object, "count"));
    const obs::JsonValue* sum_ms = obs::json_find(*object, "sum_ms");
    const obs::JsonValue* buckets = obs::json_find(*object, "buckets");
    if (metric == nullptr || metric->string() == nullptr || !count ||
        sum_ms == nullptr || sum_ms->number() == nullptr ||
        buckets == nullptr || buckets->array() == nullptr) {
      set_error(file.string() + ": malformed component entry");
      return std::nullopt;
    }
    hist.metric = *metric->string();
    hist.count = *count;
    hist.sum_ms = *sum_ms->number();
    for (const obs::JsonValue& bucket : *buckets->array()) {
      const std::optional<std::uint64_t> n = json_count(&bucket);
      if (!n) {
        set_error(file.string() + ": malformed component entry");
        return std::nullopt;
      }
      hist.buckets.push_back(*n);
    }
    out.push_back(std::move(hist));
  }
  return out;
}

}  // namespace sdc::checker
