// The measuring child: the program under test.  It calls only public
// functions — SdChecker::analyze_directory, analysis_json, analyze_fleet,
// histogram_drift, FollowService::poll_once/snapshot.  The live service
// also serves what it publishes through the real `make_follow_server`
// endpoints, exactly as `sdchecker follow --serve` does; a batch workload,
// like `sdchecker analyze` and `sdchecker fleet`, serves nothing.  Set-up
// ends at "ready": the first (untimed) run for batch workloads, server up
// plus a first poll for the live service.
#include <functional>
#include <memory>
#include <stdexcept>

#include "layers.hpp"
#include "obs/http_server.hpp"
#include "sdbench.hpp"
#include "sdchecker/compare.hpp"
#include "sdchecker/export.hpp"
#include "sdchecker/fleet.hpp"
#include "sdchecker/follow.hpp"
#include "sdchecker/sdchecker.hpp"
#include "sdchecker/serve.hpp"

namespace sdbench {

namespace {

using sdc::obs::Tracer;

/// The serving side: a publisher and the follow-mode HTTP server over it.
class Serving {
 public:
  Serving() : server_(sdc::checker::make_follow_server(publisher_)) {
    std::string error;
    if (!server_->start(&error)) throw std::runtime_error("server: " + error);
  }
  ~Serving() { server_->stop(); }
  Serving(const Serving&) = delete;
  Serving& operator=(const Serving&) = delete;

  [[nodiscard]] int port() const { return server_->port(); }

  void publish(std::string document, std::uint64_t polls, bool quiescent,
               const sdc::logging::DiagnosticCounts& diag) {
    const auto span = Tracer::global().span("sdbench.publish");
    sdc::checker::FollowPublication publication;
    publication.analysis_json = std::move(document);
    publication.polls = polls;
    publication.quiescent = quiescent;
    publication.diag_counts = diag;
    publisher_.publish(std::move(publication));
  }
  void touch(std::uint64_t polls) { publisher_.touch(polls, true); }

 private:
  sdc::checker::FollowPublisher publisher_;
  std::unique_ptr<sdc::obs::HttpServer> server_;
};

/// Ready: the load generator may start scraping (and writing).
void open_session(const Serving& serving, Shared* shared) {
  shared->port.store(serving.port());
  shared->serving.store(1, std::memory_order_release);
}

/// After the last publish: lets the load generator take its final scrape
/// and waits until it is done.
void close_session(Shared* shared, double timeout_s) {
  shared->session_done.store(1, std::memory_order_release);
  const double give_up = now_s() + timeout_s;
  while (!shared->scrape_done.load(std::memory_order_acquire)) {
    if (shared->abort.load() || now_s() > give_up) {
      throw std::runtime_error("load generator did not finish scraping");
    }
    sleep_s(0.002);
  }
}

/// HTTP-layer counters of the registry, after the session.
void record_http(Record& rec) {
  const sdc::obs::MetricsSnapshot snap =
      sdc::obs::MetricsRegistry::global().snapshot();
  double errors = 0;
  for (const auto& [name, value] : snap.counters) {
    if (name.rfind("obs.http.errors.", 0) == 0) {
      errors += static_cast<double>(value);
    }
  }
  rec.num["layer.obs.http.requests"] =
      static_cast<double>(snap.counter("obs.http.requests"));
  rec.num["layer.obs.http.errors"] = errors;
  const auto it = snap.histograms.find("obs.http.latency_ms.analysis");
  rec.num["layer.obs.http.server_ms_p50.analysis"] =
      it == snap.histograms.end() ? 0 : histogram_median(it->second);
}

void record_layers(const Config& config, const LayerTrace& layers,
                   const std::vector<std::string>& required, Record& rec) {
  for (const auto& [metric, value] : layers.values()) {
    rec.num["layer." + metric] = value;
  }
  rec.num["layer.bench.trace_overhead_ratio"] = layers.overhead_ratio();
  if (!config.trace) return;
  const fs::path out = config.trace_out.empty() ? config.dir / "trace.json"
                                                : config.trace_out;
  std::string error;
  const bool ok = layers.write_trace("sdbench " + config.workload, out,
                                     required, &error);
  rec.num["trace_ok"] = ok ? 1 : 0;
  if (!ok) rec.text["trace_error"] = error;
}

// --- batch workloads ---------------------------------------------------------

struct BatchRun {
  double seconds = 0;  // the program's work: analyze -> export
  std::string error;   // empty when every output check passed
  double bytes = 0;    // of the exported document
};

/// One batch run.  `setup` marks the first (untimed) run.
using BatchFn = std::function<BatchRun(bool setup)>;

BatchRun analyze_run(const Config& config, const Record& gen, bool setup) {
  const fs::path corpus = config.dir / "corpus";
  const sdc::checker::SdChecker checker(
      {.threads = config.threads, .analyze_shards = config.threads});
  BatchRun run;
  const double t0 = now_s();
  sdc::checker::AnalysisResult result;
  {
    const auto span = Tracer::global().span("sdchecker.analyze_directory");
    result = checker.analyze_directory(corpus);
  }
  std::string document;
  {
    const auto span = Tracer::global().span("sdchecker.analysis_json");
    document = sdc::checker::analysis_json(result);
  }
  run.seconds = now_s() - t0;
  run.bytes = static_cast<double>(document.size());
  if (digest(document) != gen.str("ref_digest")) {
    run.error = "analysis_json differs from the T=1 serial analyze";
  }
  if (setup && config.workload == "collection") {
    if (static_cast<double>(result.delays.size()) != gen.get("jobs")) {
      run.error = "analyzed " + std::to_string(result.delays.size()) +
                  " apps for " + num(gen.get("jobs")) + " simulated jobs";
    }
    for (const auto& row : result.completeness()) {
      if (row.apps_missing != 0) run.error = "Table-I completeness gap";
    }
  }
  return run;
}

BatchFn fleet_runner(const Config& config, const Record& gen) {
  auto baseline =
      std::make_shared<std::vector<sdc::checker::ComponentHistogram>>();
  return [&config, &gen, baseline](bool setup) {
    sdc::checker::FleetOptions options;
    options.threads = config.threads;
    BatchRun run;
    const double t0 = now_s();
    sdc::checker::FleetResult fleet;
    {
      const auto span = Tracer::global().span("sdchecker.analyze_fleet");
      fleet = sdc::checker::analyze_fleet(config.dir / "root", options);
    }
    sdc::checker::DriftReport drift;
    {
      const auto span = Tracer::global().span("sdchecker.histogram_drift");
      drift = sdc::checker::histogram_drift(*baseline, fleet.components);
    }
    std::string document;
    {
      const auto span = Tracer::global().span("sdchecker.summary_json");
      document = fleet.summary_json();
    }
    run.seconds = now_s() - t0;
    run.bytes = static_cast<double>(document.size());
    const std::string refs = gen.str("corpus_digests");
    if (fleet.failed() != 0 || fleet.corpora.size() * 16 != refs.size()) {
      run.error = "fleet lost or failed a corpus";
    } else {
      for (std::size_t i = 0; i < fleet.corpora.size(); ++i) {
        if (digest(fleet.corpora[i].analysis_json) != refs.substr(i * 16, 16)) {
          run.error = "corpus " + fleet.corpora[i].name +
                      " differs from its standalone analyze";
          break;
        }
      }
    }
    if (!drift.regressions().empty()) {
      run.error = "self-gate flagged drift in " +
                  drift.regressions().front()->metric;
    }
    if (setup) *baseline = fleet.components;
    return run;
  };
}

/// The T=1 standalone loop over the fleet's corpora (analyze + export per
/// corpus): the baseline the pipelined pool is measured against.
double fleet_sequential_s(const Config& config) {
  const double t0 = now_s();
  for (const fs::path& corpus :
       sdc::checker::discover_corpora(config.dir / "root")) {
    const sdc::checker::AnalysisResult result =
        sdc::checker::SdChecker().analyze_directory(corpus);
    (void)sdc::checker::analysis_json(result);
  }
  return now_s() - t0;
}

/// Timed runs back to back, nothing else in the process.
int measure_batch(const Config& config, double t_fork, bool probe,
                  const fs::path& out, const BatchFn& run_once,
                  const std::vector<std::string>& required_spans) {
  Record rec;
  const BatchRun setup = run_once(true);
  rec.num["setup_s"] = now_s() - t_fork;
  std::string errors = setup.error;
  if (probe) {
    rec.text["errors"] = errors;
    rec.save(out);
    return errors.empty() ? 0 : 1;
  }

  LayerTrace layers;
  std::vector<double> run_s;
  std::vector<double> export_bytes;
  std::size_t runs = 1;
  std::size_t failed = setup.error.empty() ? 0 : 1;
  const double deadline = now_s() + config.seconds;
  for (std::size_t i = 0; i < config.sizes.min_runs || now_s() < deadline;
       ++i) {
    const bool traced = config.trace && i % 2 == 1;
    layers.begin(traced);
    const BatchRun run = run_once(false);
    layers.end(run.seconds, true);
    if (!traced) run_s.push_back(run.seconds);
    export_bytes.push_back(run.bytes);
    ++runs;
    if (!run.error.empty()) {
      ++failed;
      errors = run.error;
    }
  }
  if (config.trace && config.workload == "fleet") {
    std::vector<double> sequential;
    for (int i = 0; i < 3; ++i) {
      sequential.push_back(fleet_sequential_s(config));
    }
    const double seq = percentile(sequential, 50);
    rec.num["layer.sdchecker.fleet.sequential_s"] = seq;
    const std::map<std::string, double> layer = layers.values();
    const auto fleet_s = layer.find("sdchecker.fleet_s");
    rec.num["layer.sdchecker.fleet.parallel_gain"] =
        fleet_s != layer.end() && fleet_s->second > 0 ? seq / fleet_s->second
                                                      : 0;
  }
  rec.num["peak_rss_mb"] = peak_rss_mb();
  record_layers(config, layers, required_spans, rec);
  rec.num["layer.sdchecker.export.bytes"] = percentile(export_bytes, 50);
  rec.list["run_s"] = run_s;
  rec.num["runs"] = static_cast<double>(runs);
  rec.num["failed"] = static_cast<double>(failed);
  rec.text["errors"] = errors;
  rec.save(out);
  return 0;
}

// --- follow-live -------------------------------------------------------------

int measure_live(const Config& config, double t_fork, bool probe,
                 Shared* shared, const fs::path& out) {
  Record rec;
  Serving serving;
  sdc::checker::FollowOptions options;
  options.analyze_shards = config.threads;
  sdc::checker::FollowService service(config.dir / "live", options);
  service.poll_once();
  rec.num["setup_s"] = now_s() - t_fork;
  if (probe) {
    rec.save(out);
    return 0;
  }

  LayerTrace layers;
  std::vector<double> publish_t;
  std::vector<double> publish_lines;
  std::vector<double> cycle_s;
  std::vector<double> export_bytes;
  double busy = 0;
  std::size_t resident_max = 0;
  std::string errors;
  open_session(serving, shared);
  const double start = now_s();
  const double give_up = start + 3 * config.seconds + 60;
  for (std::size_t cycle = 0;; ++cycle) {
    const bool writer_done =
        shared->writer_done.load(std::memory_order_acquire) != 0;
    layers.begin(config.trace && cycle % 2 == 1);
    const double t0 = now_s();
    ::pthread_mutex_lock(&shared->poll_mu);
    {
      const auto span = Tracer::global().span("sdchecker.follow.poll_once");
      service.poll_once();
    }
    ::pthread_mutex_unlock(&shared->poll_mu);
    double op = now_s() - t0;
    const bool publishing = !service.quiescent();
    if (publishing) {
      const double t2 = now_s();
      sdc::checker::AnalysisResult snapshot;
      {
        const auto span = Tracer::global().span("sdchecker.follow.snapshot");
        snapshot = service.snapshot();
      }
      std::string document;
      {
        const auto span = Tracer::global().span("sdchecker.analysis_json");
        document = sdc::checker::analysis_json(snapshot);
      }
      export_bytes.push_back(static_cast<double>(document.size()));
      serving.publish(std::move(document), service.polls(), false,
                      snapshot.diag_counts);
      const double t3 = now_s();
      op += t3 - t2;
      publish_t.push_back(t3);
      publish_lines.push_back(
          static_cast<double>(service.analyzer().lines_total()));
      cycle_s.push_back(op);
    } else {
      serving.touch(service.polls());
    }
    layers.end(op, publishing);
    busy += op;
    resident_max = std::max(resident_max, service.analyzer().apps_resident());
    if (writer_done && service.quiescent()) break;
    if (shared->abort.load() || now_s() > give_up) {
      errors = "live session did not drain";
      break;
    }
    sleep_s(config.sizes.live_poll_sleep_s);
  }
  const double session_s = now_s() - start;

  // Drain: final partial lines, then the document the parity gate checks.
  service.finish();
  const sdc::checker::AnalysisResult drained = service.snapshot();
  std::string document = sdc::checker::analysis_json(drained);
  rec.text["published_digest"] = digest(document);
  serving.publish(std::move(document), service.polls(), true,
                  drained.diag_counts);
  publish_t.push_back(now_s());
  publish_lines.push_back(
      static_cast<double>(service.analyzer().lines_total()));
  close_session(shared, 60);

  rec.num["peak_rss_mb"] = peak_rss_mb();
  record_http(rec);
  record_layers(config, layers, {"sdchecker.follow.poll_once"}, rec);
  const double polls = static_cast<double>(service.polls());
  const double lines = static_cast<double>(service.analyzer().lines_total());
  rec.num["layer.sdchecker.export.bytes"] = percentile(export_bytes, 50);
  rec.num["layer.sdchecker.follow.polls"] = polls;
  rec.num["layer.sdchecker.follow.lines_per_poll"] =
      polls > 0 ? lines / polls : 0;
  rec.num["layer.sdchecker.follow.busy_share"] =
      session_s > 0 ? busy / session_s : 0;
  rec.num["layer.sdchecker.follow.rotations"] =
      static_cast<double>(service.rotations());
  rec.num["layer.sdchecker.incremental.apps_resident_max"] =
      static_cast<double>(resident_max);
  rec.num["layer.sdchecker.incremental.apps_retired"] =
      static_cast<double>(service.analyzer().apps_retired());
  rec.list["publish_t"] = publish_t;
  rec.list["publish_lines"] = publish_lines;
  rec.list["cycle_s"] = cycle_s;
  rec.num["busy_s"] = busy;
  rec.num["lines"] = lines;
  rec.num["failed"] = errors.empty() ? 0 : 1;
  rec.text["errors"] = errors;
  rec.save(out);
  return 0;
}

}  // namespace

int measure(const Config& config, const Record& gen, double t_fork, bool probe,
            Shared* shared, const fs::path& out) {
  if (config.workload == "follow-live") {
    return measure_live(config, t_fork, probe, shared, out);
  }
  if (config.workload == "fleet") {
    return measure_batch(
        config, t_fork, probe, out, fleet_runner(config, gen),
        {"sdchecker.analyze_fleet", "sdchecker.histogram_drift",
         "sdchecker.summary_json"});
  }
  return measure_batch(
      config, t_fork, probe, out,
      [&config, &gen](bool setup) { return analyze_run(config, gen, setup); },
      {"sdchecker.analyze_directory", "sdchecker.analysis_json"});
}

}  // namespace sdbench
