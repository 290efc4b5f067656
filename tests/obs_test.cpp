// Observability layer: metrics registry, span tracer, trace validator,
// progress meter, and the span/trace contracts under the sharded miner.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <map>
#include <set>
#include <thread>
#include <vector>

#include "logging/diagnostics.hpp"
#include "logging/log_bundle.hpp"
#include "logging/timestamp.hpp"
#include "obs/metric_catalog.hpp"
#include "obs/metrics.hpp"
#include "obs/progress.hpp"
#include "obs/trace_check.hpp"
#include "obs/trace_writer.hpp"
#include "obs/tracer.hpp"
#include "sdchecker/miner.hpp"
#include "sdchecker/sdchecker.hpp"

namespace sdc::obs {
namespace {

// --- metrics registry --------------------------------------------------------

TEST(Metrics, CounterGetOrCreateIsPointerStable) {
  MetricsRegistry registry;
  Counter& a = registry.counter("test.counter");
  Counter& b = registry.counter("test.counter");
  EXPECT_EQ(&a, &b);
  a.add(3);
  b.add(4);
  EXPECT_EQ(a.value(), 7u);
}

TEST(Metrics, GaugeSetAndAdd) {
  MetricsRegistry registry;
  Gauge& g = registry.gauge("test.gauge");
  g.set(10);
  g.add(-3);
  EXPECT_EQ(g.value(), 7);
  g.reset();
  EXPECT_EQ(g.value(), 0);
}

TEST(Metrics, HistogramBucketsAndOverflow) {
  Histogram h({1.0, 2.0, 5.0});
  h.observe(0.5);   // bucket 0 (<= 1)
  h.observe(1.0);   // bucket 0 (edges inclusive)
  h.observe(1.5);   // bucket 1
  h.observe(4.0);   // bucket 2
  h.observe(100.0); // overflow
  EXPECT_EQ(h.count(), 5u);
  EXPECT_DOUBLE_EQ(h.sum(), 0.5 + 1.0 + 1.5 + 4.0 + 100.0);
  const std::vector<std::uint64_t> buckets = h.bucket_counts();
  ASSERT_EQ(buckets.size(), 4u);  // 3 edges + overflow
  EXPECT_EQ(buckets[0], 2u);
  EXPECT_EQ(buckets[1], 1u);
  EXPECT_EQ(buckets[2], 1u);
  EXPECT_EQ(buckets[3], 1u);
}

TEST(Metrics, HistogramFirstRegistrationFixesEdges) {
  MetricsRegistry registry;
  Histogram& a = registry.histogram("test.h", {1.0, 2.0});
  Histogram& b = registry.histogram("test.h", {99.0});
  EXPECT_EQ(&a, &b);
  EXPECT_EQ(b.upper_edges().size(), 2u);
}

TEST(Metrics, SnapshotAndJson) {
  MetricsRegistry registry;
  registry.counter("c.one").add(5);
  registry.gauge("g.one").set(-2);
  registry.histogram("h.one", {10.0}).observe(3.0);

  const MetricsSnapshot snapshot = registry.snapshot();
  EXPECT_TRUE(snapshot.has_counter("c.one"));
  EXPECT_EQ(snapshot.counter("c.one"), 5u);
  EXPECT_EQ(snapshot.gauges.at("g.one"), -2);
  ASSERT_TRUE(snapshot.has_histogram("h.one"));
  EXPECT_EQ(snapshot.histograms.at("h.one").count, 1u);

  const std::string json = snapshot.to_json();
  EXPECT_NE(json.find("\"c.one\":5"), std::string::npos);
  EXPECT_NE(json.find("\"g.one\":-2"), std::string::npos);
  EXPECT_NE(json.find("\"h.one\""), std::string::npos);
  EXPECT_NE(json.find("\"+inf\""), std::string::npos);
}

TEST(Metrics, ResetValuesKeepsReferencesValid) {
  MetricsRegistry registry;
  Counter& c = registry.counter("c");
  c.add(9);
  registry.reset_values();
  EXPECT_EQ(c.value(), 0u);
  c.add(1);
  EXPECT_EQ(registry.snapshot().counter("c"), 1u);
}

TEST(Metrics, ConcurrentUpdatesAreExact) {
  MetricsRegistry registry;
  Counter& c = registry.counter("concurrent.counter");
  Histogram& h = registry.histogram("concurrent.hist", {0.5});
  constexpr int kThreads = 8;
  constexpr int kPerThread = 20000;
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&] {
      for (int i = 0; i < kPerThread; ++i) {
        c.add(1);
        h.observe(1.0);  // all overflow
      }
    });
  }
  for (std::thread& w : workers) w.join();
  EXPECT_EQ(c.value(), static_cast<std::uint64_t>(kThreads) * kPerThread);
  EXPECT_EQ(h.count(), static_cast<std::uint64_t>(kThreads) * kPerThread);
  const std::vector<std::uint64_t> buckets = h.bucket_counts();
  EXPECT_EQ(buckets.back(), static_cast<std::uint64_t>(kThreads) * kPerThread);
}

TEST(Metrics, ConcurrentGetOrCreateYieldsOneInstrument) {
  MetricsRegistry registry;
  constexpr int kThreads = 8;
  std::vector<Counter*> seen(kThreads, nullptr);
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      for (int i = 0; i < 1000; ++i) {
        seen[t] = &registry.counter("race.counter");
        seen[t]->add(1);
      }
    });
  }
  for (std::thread& w : workers) w.join();
  for (int t = 1; t < kThreads; ++t) EXPECT_EQ(seen[t], seen[0]);
  EXPECT_EQ(registry.snapshot().counter("race.counter"), 8000u);
}

// --- tracer ------------------------------------------------------------------

TEST(Tracer, DisabledSpanIsInertAndRecordsNothing) {
  Tracer tracer;
  ASSERT_FALSE(tracer.enabled());
  {
    const auto span = tracer.span("should.not.record");
    EXPECT_FALSE(span.active());
  }
  EXPECT_TRUE(tracer.snapshot().empty());
}

TEST(Tracer, EnabledSpanRecordsNameAndDuration) {
  Tracer tracer;
  tracer.set_enabled(true);
  {
    const auto span = tracer.span("unit.work");
    EXPECT_TRUE(span.active());
  }
  const std::vector<SpanRecord> spans = tracer.snapshot();
  ASSERT_EQ(spans.size(), 1u);
  EXPECT_EQ(spans[0].name, "unit.work");
  EXPECT_EQ(spans[0].track, Tracer::current_track());
}

TEST(Tracer, ClearDropsSpansAndRestartsEpoch) {
  Tracer tracer;
  tracer.set_enabled(true);
  { const auto span = tracer.span("a"); }
  ASSERT_EQ(tracer.snapshot().size(), 1u);
  tracer.clear();
  EXPECT_TRUE(tracer.snapshot().empty());
  { const auto span = tracer.span("b"); }
  const auto spans = tracer.snapshot();
  ASSERT_EQ(spans.size(), 1u);
  EXPECT_EQ(spans[0].name, "b");
}

TEST(Tracer, ThreadsGetDistinctTracks) {
  Tracer tracer;
  tracer.set_enabled(true);
  constexpr int kThreads = 4;
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&] { const auto span = tracer.span("per.thread"); });
  }
  for (std::thread& w : workers) w.join();
  const std::vector<SpanRecord> spans = tracer.snapshot();
  ASSERT_EQ(spans.size(), static_cast<std::size_t>(kThreads));
  std::set<std::uint32_t> tracks;
  for (const SpanRecord& s : spans) tracks.insert(s.track);
  EXPECT_EQ(tracks.size(), static_cast<std::size_t>(kThreads));
}

TEST(Tracer, NestedSpansAreContainedWithinParents) {
  Tracer tracer;
  tracer.set_enabled(true);
  {
    const auto outer = tracer.span("outer");
    {
      const auto inner = tracer.span("inner");
    }
  }
  const std::vector<SpanRecord> spans = tracer.snapshot();
  ASSERT_EQ(spans.size(), 2u);
  // Spans record on destruction: inner first, outer second.
  const SpanRecord& inner = spans[0];
  const SpanRecord& outer = spans[1];
  EXPECT_EQ(inner.name, "inner");
  EXPECT_EQ(outer.name, "outer");
  EXPECT_GE(inner.start_us, outer.start_us);
  EXPECT_LE(inner.start_us + inner.dur_us, outer.start_us + outer.dur_us);
}

// --- trace writer + validator ------------------------------------------------

TEST(TraceWriter, SpansRoundTripThroughValidator) {
  std::vector<SpanRecord> spans;
  spans.push_back({"mine.total", 0, 500, 0});
  spans.push_back({"mine.chunk", 10, 100, 1});
  spans.push_back({"mine.chunk", 120, 100, 1});
  const std::string json = spans_trace_json(spans);
  const TraceCheckResult result = check_trace_json(json);
  EXPECT_TRUE(result.ok) << (result.errors.empty() ? "" : result.errors[0]);
  EXPECT_GT(result.events, 0u);
  EXPECT_EQ(result.processes, 1u);
}

TEST(TraceCheck, RejectsMalformedJson) {
  EXPECT_FALSE(check_trace_json("{\"traceEvents\":[").ok);
  EXPECT_FALSE(check_trace_json("not json at all").ok);
  EXPECT_FALSE(check_trace_json("[]").ok);  // top level must be an object
}

TEST(TraceCheck, RejectsNonMonotonicSliceTimestamps) {
  TraceEventWriter writer;
  writer.process_name(1, "p");
  writer.complete(1, 1, "late", 100, 10);
  writer.complete(1, 1, "early", 50, 10);  // goes backwards on the track
  const TraceCheckResult result = check_trace_json(writer.finish());
  EXPECT_FALSE(result.ok);
}

TEST(TraceCheck, AllowsEqualTimestampsAndIndependentTracks) {
  TraceEventWriter writer;
  writer.process_name(1, "p");
  writer.complete(1, 1, "a", 100, 10);
  writer.complete(1, 1, "b", 100, 5);   // equal ts is fine
  writer.complete(1, 2, "c", 10, 10);   // other track restarts freely
  EXPECT_TRUE(check_trace_json(writer.finish()).ok);
}

TEST(TraceCheck, RequiredSlicesEnforcedPerMatchingProcess) {
  TraceEventWriter writer;
  writer.process_name(1, "application_1499100000000_0001");
  writer.complete(1, 1, "total", 0, 10);
  writer.process_name(2, "other process");  // prefix does not match
  writer.complete(2, 1, "unrelated", 0, 10);
  const std::string json = writer.finish();

  TraceCheckOptions options;
  options.required_process_prefix = "application_";
  options.required_slices = {"total"};
  EXPECT_TRUE(check_trace_json(json, options).ok);

  options.required_slices = {"total", "am"};
  const TraceCheckResult missing = check_trace_json(json, options);
  EXPECT_FALSE(missing.ok);
  ASSERT_FALSE(missing.errors.empty());
  EXPECT_NE(missing.errors[0].find("am"), std::string::npos);
}

TEST(TraceCheck, NegativeDurationRejected) {
  // Hand-built event with dur < 0 (the writer API cannot produce one).
  const std::string json =
      "{\"traceEvents\":[{\"name\":\"x\",\"ph\":\"X\",\"pid\":1,\"tid\":1,"
      "\"ts\":5,\"dur\":-1}]}";
  EXPECT_FALSE(check_trace_json(json).ok);
}

// --- spans under the sharded miner -------------------------------------------

/// Writes a corpus big enough that, chunked at the default grain, the
/// mining pool's workers all get meaningful work (each chunk is ~8k
/// lines, so one thread cannot drain the queue before the others start).
std::filesystem::path write_span_corpus() {
  const auto dir =
      std::filesystem::temp_directory_path() / "sdc_obs_span_corpus";
  std::filesystem::remove_all(dir);
  logging::LogBundle bundle;
  const std::string rm_app =
      "org.apache.hadoop.yarn.server.resourcemanager.rmapp.RMAppImpl";
  const std::string rm_client =
      "org.apache.hadoop.yarn.server.resourcemanager.ClientRMService";
  constexpr std::int64_t kEpoch = 1'499'100'000'000;
  for (int stream = 0; stream < 6; ++stream) {
    const std::string name = "rm-" + std::to_string(stream) + ".log";
    bundle.append(name, logging::format_epoch_ms(kEpoch) + " INFO  " + rm_app +
                            ": application_1499100000000_000" +
                            std::to_string(stream + 1) +
                            " State change from NEW_SAVING to SUBMITTED on "
                            "event = APP_NEW_SAVED");
    for (int i = 0; i < 25'000; ++i) {
      bundle.append(name, logging::format_epoch_ms(kEpoch + i) + " INFO  " +
                              rm_client + ": Allocated new applicationId: " +
                              std::to_string(i));
    }
  }
  bundle.write_to_directory(dir);
  return dir;
}

/// Runs `work` with the tracer on; returns the spans it recorded.
template <class Work>
std::vector<SpanRecord> traced(Work work) {
  Tracer& tracer = Tracer::global();
  tracer.clear();
  tracer.set_enabled(true);
  work();
  tracer.set_enabled(false);
  std::vector<SpanRecord> spans = tracer.snapshot();
  tracer.clear();
  return spans;
}

std::set<std::uint32_t> tracks_of(const std::vector<SpanRecord>& spans,
                                  std::string_view name) {
  std::set<std::uint32_t> tracks;
  for (const SpanRecord& span : spans) {
    if (span.name == name) tracks.insert(span.track);
  }
  return tracks;
}

/// Well-formed nesting per track: any two spans on one track are either
/// disjoint or one contains the other (RAII guarantees it; the export
/// depends on it) — and the rendered self-profile satisfies the trace
/// schema.
void expect_well_formed(const std::vector<SpanRecord>& spans) {
  std::map<std::uint32_t, std::vector<const SpanRecord*>> by_track;
  for (const SpanRecord& span : spans) by_track[span.track].push_back(&span);
  for (const auto& [track, records] : by_track) {
    for (std::size_t i = 0; i < records.size(); ++i) {
      for (std::size_t j = i + 1; j < records.size(); ++j) {
        const std::uint64_t a0 = records[i]->start_us;
        const std::uint64_t a1 = a0 + records[i]->dur_us;
        const std::uint64_t b0 = records[j]->start_us;
        const std::uint64_t b1 = b0 + records[j]->dur_us;
        const bool disjoint = a1 <= b0 || b1 <= a0;
        const bool a_in_b = b0 <= a0 && a1 <= b1;
        const bool b_in_a = a0 <= b0 && b1 <= a1;
        EXPECT_TRUE(disjoint || a_in_b || b_in_a)
            << "track " << track << ": [" << a0 << "," << a1 << ") vs ["
            << b0 << "," << b1 << ")";
      }
    }
  }
  const TraceCheckResult result = check_trace_json(spans_trace_json(spans));
  EXPECT_TRUE(result.ok) << (result.errors.empty() ? "" : result.errors[0]);
}

TEST(ShardedMinerSpans, WorkersEmitWellFormedSpansOnDistinctTracks) {
  const std::filesystem::path dir = write_span_corpus();
  // `analyze` runs one pipeline on one pool: the task that completes a
  // stream's last chunk stitches and groups that stream, so grouping is
  // spread over the workers.  The pool counts its tasks from the
  // registry's creation on, with no set-up here.
  const auto pool_tasks = [] {
    return MetricsRegistry::global().snapshot().counter("pool.tasks");
  };
  std::uint64_t tasks_before = pool_tasks();
  checker::AnalysisResult analysis;
  const std::vector<SpanRecord> spans = traced([&] {
    analysis = checker::SdChecker({.threads = 4}).analyze_directory(dir);
  });
  ASSERT_GT(analysis.events_total, 0u);
  EXPECT_GT(pool_tasks(), tasks_before);
  std::size_t chunks = 0;
  for (const SpanRecord& span : spans) chunks += span.name == "mine.chunk";
  EXPECT_FALSE(tracks_of(spans, "mine.total").empty());
  EXPECT_GT(chunks, 1u);
  // With the default grain on a multi-stream corpus and 4 workers, more
  // than one pool thread must have mined chunks and grouped streams.
  EXPECT_GT(tracks_of(spans, "mine.chunk").size(), 1u);
  EXPECT_GT(tracks_of(spans, "analyze.group").size(), 1u);
  // Listing and planning, diagnostics assembly and teardown run once, on
  // the calling thread.
  const std::set<std::uint32_t> caller = {Tracer::current_track()};
  for (const std::string_view name :
       {"mine.plan", "analyze.assemble", "analyze.teardown"}) {
    EXPECT_EQ(std::count_if(spans.begin(), spans.end(),
                            [&](const SpanRecord& span) {
                              return span.name == name;
                            }),
              1)
        << name;
    EXPECT_EQ(tracks_of(spans, name), caller) << name;
  }
  expect_well_formed(spans);

  // One thread: no pool at all.
  tasks_before = pool_tasks();
  const checker::AnalysisResult serial =
      checker::SdChecker({.threads = 1}).analyze_directory(dir);
  EXPECT_EQ(pool_tasks(), tasks_before);
  EXPECT_EQ(serial.events_total, analysis.events_total);
  std::filesystem::remove_all(dir);
}

// --- progress meter ----------------------------------------------------------

TEST(Progress, RateAndEtaFromSamples) {
  ProgressMeter meter(1000);
  meter.sample(0, 0.0);
  EXPECT_EQ(meter.rate(), 0.0);
  EXPECT_FALSE(meter.eta_s().has_value());
  meter.sample(100, 1.0);
  EXPECT_GT(meter.rate(), 0.0);
  const auto eta = meter.eta_s();
  ASSERT_TRUE(eta.has_value());
  EXPECT_GT(*eta, 0.0);
  // Past the total: no ETA.
  meter.sample(1000, 5.0);
  EXPECT_FALSE(meter.eta_s().has_value());
}

TEST(Progress, UnknownTotalShowsRateOnly) {
  ProgressMeter meter(0);
  meter.sample(0, 0.0);
  meter.sample(500, 1.0);
  EXPECT_FALSE(meter.eta_s().has_value());
  const std::string line = meter.render();
  EXPECT_EQ(line.find('%'), std::string::npos);
  EXPECT_NE(line.find("bytes/s"), std::string::npos);
}

TEST(Progress, RenderContainsPercentAndEta) {
  ProgressMeter meter(1'000'000);
  meter.sample(0, 0.0);
  meter.sample(123'000, 1.0);
  const std::string line = meter.render();
  EXPECT_NE(line.find('%'), std::string::npos);
  EXPECT_NE(line.find("bytes"), std::string::npos);
  EXPECT_NE(line.find("ETA"), std::string::npos);
}

TEST(Progress, HumanizeCount) {
  EXPECT_EQ(humanize_count(999), "999");
  EXPECT_EQ(humanize_count(1234), "1.2k");
  EXPECT_EQ(humanize_count(2'500'000), "2.5M");
  EXPECT_EQ(humanize_count(3'000'000'000.0), "3.0G");
}

TEST(Progress, HumanizeSeconds) {
  EXPECT_EQ(humanize_seconds(4.2), "4s");
  EXPECT_EQ(humanize_seconds(125), "2m05s");
  EXPECT_EQ(humanize_seconds(3700), "1h01m");
}

// --- diagnostics report ordering --------------------------------------------

TEST(DiagnosticsOrder, SeverityThenKindThenStreamThenLine) {
  using logging::Diagnostic;
  using logging::DiagnosticKind;
  std::vector<Diagnostic> diags;
  diags.push_back({DiagnosticKind::kTimestampRegression, "b.log", 5, 1, ""});
  diags.push_back({DiagnosticKind::kBinaryGarbage, "z.log", 9, 1, ""});
  diags.push_back({DiagnosticKind::kUnreadableFile, "a.log", 0, 1, ""});
  diags.push_back({DiagnosticKind::kBinaryGarbage, "a.log", 2, 1, ""});
  diags.push_back({DiagnosticKind::kRotationGap, "a.log", 1, 1, ""});
  diags.push_back({DiagnosticKind::kTruncatedLine, "a.log", 7, 1, ""});

  logging::sort_diagnostics(diags);

  // Severity 0 (lost input) first.
  EXPECT_EQ(diags[0].kind, DiagnosticKind::kUnreadableFile);
  // Severity 1: garbage before truncation (enum order), streams sorted.
  EXPECT_EQ(diags[1].kind, DiagnosticKind::kBinaryGarbage);
  EXPECT_EQ(diags[1].stream, "a.log");
  EXPECT_EQ(diags[2].kind, DiagnosticKind::kBinaryGarbage);
  EXPECT_EQ(diags[2].stream, "z.log");
  EXPECT_EQ(diags[3].kind, DiagnosticKind::kTruncatedLine);
  // Severity 2 last.
  EXPECT_EQ(diags[4].kind, DiagnosticKind::kRotationGap);
  EXPECT_EQ(diags[5].kind, DiagnosticKind::kTimestampRegression);
}

TEST(DiagnosticsOrder, SortIsStableWithinEqualKeys) {
  using logging::Diagnostic;
  using logging::DiagnosticKind;
  std::vector<Diagnostic> diags;
  diags.push_back({DiagnosticKind::kBinaryGarbage, "a.log", 3, 1, "first"});
  diags.push_back({DiagnosticKind::kBinaryGarbage, "a.log", 3, 2, "second"});
  logging::sort_diagnostics(diags);
  EXPECT_EQ(diags[0].detail, "first");
  EXPECT_EQ(diags[1].detail, "second");
}

}  // namespace
}  // namespace sdc::obs
