// Parallel-vs-serial equivalence for the analysis stage.
//
// The whole point of the parallel pipeline is that it is an *invisible*
// optimization: every export byte, every diagnostic, every aggregate
// percentile must match the serial stage exactly.  These tests pin that
// down for several worker counts (including more workers than apps),
// each racing stream completions from 64-byte chunks into the corpus's
// one application table, for repeated runs, and for the incremental
// analyzer's snapshot fold.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/thread_pool.hpp"
#include "harness/scenario.hpp"
#include "mine_helpers.hpp"
#include "sdchecker/compare.hpp"
#include "sdchecker/export.hpp"
#include "sdchecker/incremental.hpp"
#include "sdchecker/sdchecker.hpp"
#include "sdchecker/trace_export.hpp"
#include "workloads/tpch.hpp"

namespace sdc::checker {
namespace {

/// A multi-app corpus with a little corruption so the diagnostics path is
/// exercised too.
logging::LogBundle make_corpus(int jobs) {
  harness::ScenarioConfig scenario;
  scenario.seed = 77;
  for (int i = 0; i < jobs; ++i) {
    harness::SparkSubmissionPlan plan;
    plan.at = seconds(1 + 5 * i);
    plan.app = workloads::make_tpch_query(1 + i % 22, 2048, 2 + i % 3);
    scenario.spark_jobs.push_back(std::move(plan));
  }
  logging::LogBundle logs = harness::run_scenario(scenario).logs;
  logs.append("rm.log", "no timestamp here: plain unparsable line");
  logs.append("rm.log", std::string("\x00\x01\x02 binary garbage", 18));
  return logs;
}

/// `workers` mining threads and analysis workers; above 1, the corpus
/// splits into many chunks, so streams complete concurrently.
AnalysisResult analyze_with_shards(const logging::LogBundle& logs,
                                   std::size_t workers) {
  return SdChecker({.threads = workers,
                    .shard_grain = 64,
                    .analyze_shards = workers})
      .analyze(logs);
}

std::string diagnostics_fingerprint(const AnalysisResult& analysis) {
  std::string out;
  for (const logging::Diagnostic& d : analysis.diagnostics) {
    out += logging::render_diagnostic(d);
    out += '\n';
  }
  return out;
}

TEST(AnalyzeSharded, ShardCountsProduceByteIdenticalOutput) {
  const logging::LogBundle logs = make_corpus(9);
  const AnalysisResult serial = analyze_with_shards(logs, 1);
  ASSERT_GE(serial.timelines.size(), 9u);
  const std::string serial_json = analysis_json(serial);
  const std::string serial_trace = scheduling_trace_json(serial);
  const std::string serial_diag = diagnostics_fingerprint(serial);

  for (const std::size_t workers : {std::size_t{1}, std::size_t{2},
                                    std::size_t{7}, std::size_t{16}}) {
    const AnalysisResult sharded = analyze_with_shards(logs, workers);
    EXPECT_EQ(analysis_json(sharded), serial_json) << "workers=" << workers;
    EXPECT_EQ(scheduling_trace_json(sharded), serial_trace)
        << "workers=" << workers;
    EXPECT_EQ(diagnostics_fingerprint(sharded), serial_diag)
        << "workers=" << workers;
    EXPECT_EQ(sharded.events_total, serial.events_total);
    EXPECT_EQ(sharded.events_unattributed, serial.events_unattributed);
    EXPECT_EQ(sharded.anomalies.size(), serial.anomalies.size());
    EXPECT_EQ(sharded.render_completeness(), serial.render_completeness());
    // The aggregate comparison must read as an exact identity.
    const ComparisonResult delta = compare(serial, sharded);
    EXPECT_TRUE(delta.significant(1e-9).empty()) << "workers=" << workers;
  }
}

TEST(AnalyzeSharded, RepeatedShardedRunsAreDeterministic) {
  const logging::LogBundle logs = make_corpus(6);
  const std::string first = analysis_json(analyze_with_shards(logs, 4));
  for (int run = 0; run < 3; ++run) {
    EXPECT_EQ(analysis_json(analyze_with_shards(logs, 4)), first);
  }
}

TEST(AnalyzeSharded, AutoShardCountResolvesToHardware) {
  AnalyzeOptions options;
  options.analyze_shards = 0;
  EXPECT_GE(options.effective_analyze_shards(), 1u);
  options.analyze_shards = 5;
  EXPECT_EQ(options.effective_analyze_shards(), 5u);
}

TEST(AnalyzeSharded, GroupEventsShardedMatchesSerialGrouping) {
  // What `CorpusPipeline` relies on: stitched streams applied to one
  // table in any completion order (here: reverse name order, mined in
  // 64-byte chunks) group exactly like every stream applied in name
  // order.
  const auto group = [](const EventBatch& events, AppTable& apps) {
    std::size_t unattributed = 0;
    for (std::size_t i = 0; i < events.size(); ++i) {
      if (!apply_event(apps, events, i)) ++unattributed;
    }
    return unattributed;
  };
  const auto container_ids = [](const AppTimeline& timeline) {
    std::vector<ContainerId> ids;
    for (const auto& [id, container] : timeline.containers) ids.push_back(id);
    return ids;
  };
  const logging::LogBundle logs = make_corpus(5);
  AppTable serial;
  std::size_t serial_unattributed = 0;
  for (const MinedStream& stream : mine(logs).streams) {
    serial_unattributed += group(stream.events, serial);
  }

  MinePlan plan(logs, MinerOptions{.threads = 4, .shard_grain = 64});
  for (std::size_t c = 0; c < plan.chunk_count(); ++c) plan.run_chunk(c);
  AppTable reversed;
  std::size_t unattributed = 0;
  std::vector<logging::Diagnostic> unreadable;
  for (std::size_t stream = plan.stream_count(); stream-- > 0;) {
    const MinedStream stitched = *plan.stitch(stream, unreadable);
    unattributed += group(stitched.events, reversed);
  }
  EXPECT_EQ(unattributed, serial_unattributed);

  ASSERT_EQ(reversed.size(), serial.size());
  for (const auto& [app, timeline] : reversed) {
    const auto it = serial.find(app);
    ASSERT_NE(it, serial.end());
    // Identical per-kind state: presence bits, first timestamps, and
    // the container set.
    EXPECT_EQ(timeline.first_ts.present_mask(),
              it->second.first_ts.present_mask());
    for (const auto& [kind, ts] : timeline.first_ts) {
      EXPECT_EQ(ts, *it->second.ts(kind));
    }
    EXPECT_EQ(container_ids(timeline), container_ids(it->second));
  }
}

TEST(AnalyzeSharded, IncrementalSnapshotShardedMatchesSerial) {
  const logging::LogBundle logs = make_corpus(6);
  IncrementalAnalyzer analyzer;
  for (const std::string& name : logs.stream_names()) {
    analyzer.feed_all(name, logs.lines(name));
  }
  const std::string serial = analysis_json(analyzer.snapshot());
  ThreadPool pool(4);
  EXPECT_EQ(analysis_json(analyzer.snapshot(&pool)), serial);
  EXPECT_EQ(analysis_json(analyzer.snapshot(&pool)), serial);  // pool reused
}

TEST(AnalyzeSharded, MoreShardsThanAppsStillCoversEverything) {
  const logging::LogBundle logs = make_corpus(2);
  const AnalysisResult serial = analyze_with_shards(logs, 1);
  const AnalysisResult wide = analyze_with_shards(logs, 64);
  EXPECT_EQ(analysis_json(wide), analysis_json(serial));
}

}  // namespace
}  // namespace sdc::checker
