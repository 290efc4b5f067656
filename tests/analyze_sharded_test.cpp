// Sharded-vs-serial equivalence for the analysis stage.
//
// The whole point of the app-partitioned pipeline is that it is an
// *invisible* optimization: every export byte, every diagnostic, every
// aggregate percentile must match the serial stage exactly.  These tests
// pin that down for several shard counts (including more shards than
// apps), for repeated runs, and for the incremental analyzer's snapshot
// fold.
#include <gtest/gtest.h>

#include <set>
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

AnalysisResult analyze_with_shards(const logging::LogBundle& logs,
                                   std::size_t shards) {
  AnalyzeOptions options;
  options.analyze_shards = shards;
  return SdChecker(options).analyze(logs);
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

  for (const std::size_t shards : {std::size_t{1}, std::size_t{2},
                                   std::size_t{7}, std::size_t{16}}) {
    const AnalysisResult sharded = analyze_with_shards(logs, shards);
    EXPECT_EQ(analysis_json(sharded), serial_json) << "shards=" << shards;
    EXPECT_EQ(scheduling_trace_json(sharded), serial_trace)
        << "shards=" << shards;
    EXPECT_EQ(diagnostics_fingerprint(sharded), serial_diag)
        << "shards=" << shards;
    EXPECT_EQ(sharded.events_total, serial.events_total);
    EXPECT_EQ(sharded.events_unattributed, serial.events_unattributed);
    EXPECT_EQ(sharded.anomalies.size(), serial.anomalies.size());
    EXPECT_EQ(sharded.render_completeness(), serial.render_completeness());
    // The aggregate comparison must read as an exact identity.
    const ComparisonResult delta = compare(serial, sharded);
    EXPECT_TRUE(delta.significant(1e-9).empty()) << "shards=" << shards;
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

TEST(AnalyzeSharded, ShardRoutingIsTotalAndStable) {
  for (std::int32_t id = 1; id <= 200; ++id) {
    const ApplicationId app{1499100000000 + id % 3, id};
    for (const std::size_t shards : {1u, 2u, 7u, 16u}) {
      const std::size_t shard = timeline_shard(app, shards);
      EXPECT_LT(shard, shards);
      EXPECT_EQ(shard, timeline_shard(app, shards));  // stable
    }
  }
}

TEST(AnalyzeSharded, GroupEventsShardedMatchesSerialGrouping) {
  // What `CorpusPipeline` relies on: stitched streams applied to
  // app-partitioned tables in any completion order (here: reverse name
  // order) group exactly like every stream applied to one table in name
  // order.
  const logging::LogBundle logs = make_corpus(5);
  AppTable serial;
  std::size_t serial_unattributed = 0;
  for (const MinedStream& stream : mine(logs).streams) {
    serial_unattributed += apply_batch_to_shard(stream.events, serial, 0, 1);
  }

  MinePlan plan(logs, MinerOptions{.threads = 4, .shard_grain = 64});
  for (std::size_t c = 0; c < plan.chunk_count(); ++c) plan.run_chunk(c);
  std::vector<AppTable> sharded(4);
  std::size_t unattributed = 0;
  std::vector<logging::Diagnostic> unreadable;
  for (std::size_t stream = plan.stream_count(); stream-- > 0;) {
    const MinedStream stitched = *plan.stitch(stream, unreadable);
    for (std::size_t s = 0; s < sharded.size(); ++s) {
      unattributed +=
          apply_batch_to_shard(stitched.events, sharded[s], s, sharded.size());
    }
  }
  EXPECT_EQ(unattributed, serial_unattributed);

  std::size_t total_apps = 0;
  std::set<ApplicationId> seen;
  for (std::size_t s = 0; s < sharded.size(); ++s) {
    for (const auto& [app, timeline] : sharded[s]) {
      ++total_apps;
      EXPECT_TRUE(seen.insert(app).second) << "app in two shards";
      EXPECT_EQ(timeline_shard(app, sharded.size()), s);
      const auto it = serial.find(app);
      ASSERT_NE(it, serial.end());
      // Identical per-kind state: presence bits, first timestamps, and
      // the container set.
      EXPECT_EQ(timeline.first_ts.present_mask(),
                it->second.first_ts.present_mask());
      for (const auto& [kind, ts] : timeline.first_ts) {
        EXPECT_EQ(ts, *it->second.ts(kind));
      }
      EXPECT_EQ(timeline.containers.size(), it->second.containers.size());
    }
  }
  EXPECT_EQ(total_apps, serial.size());
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
