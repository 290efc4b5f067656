// Robustness tests for the miner and decomposer on degenerate inputs:
// empty bundles, garbage-only streams, MR-only corpora, partial chains.
#include <gtest/gtest.h>

#include "harness/scenario.hpp"
#include "logging/timestamp.hpp"
#include "mine_helpers.hpp"
#include "sdchecker/sdchecker.hpp"
#include "workloads/mr_app.hpp"

namespace sdc::checker {
namespace {

constexpr std::int64_t kEpoch = 1'499'100'000'000;

std::string line(std::int64_t offset_ms, const std::string& cls,
                 const std::string& message) {
  return logging::format_epoch_ms(kEpoch + offset_ms) + " INFO  " + cls + ": " +
         message;
}

TEST(MinerRobustness, EmptyBundle) {
  const AnalysisResult result = SdChecker().analyze(logging::LogBundle{});
  EXPECT_EQ(result.timelines.size(), 0u);
  EXPECT_EQ(result.lines_total, 0u);
  EXPECT_TRUE(result.anomalies.empty());
  EXPECT_EQ(result.aggregate.app_count(), 0u);
  (void)result.aggregate.render_text();  // must not throw on empty
}

TEST(MinerRobustness, GarbageOnlyStream) {
  logging::LogBundle bundle;
  bundle.append("junk.log", "not a log line");
  bundle.append("junk.log", "");
  bundle.append("junk.log", "\tat java.lang.Thread.run(Thread.java:745)");
  const AnalysisResult result = SdChecker().analyze(bundle);
  EXPECT_EQ(result.lines_total, 3u);
  EXPECT_EQ(result.lines_unparsed, 3u);
  EXPECT_EQ(result.events_total, 0u);
}

TEST(MinerRobustness, UnknownClassesParseButYieldNoEvents) {
  logging::LogBundle bundle;
  bundle.append("other.log",
                line(0, "com.example.Unrelated", "some business log"));
  const AnalysisResult result = SdChecker().analyze(bundle);
  EXPECT_EQ(result.lines_unparsed, 0u);
  EXPECT_EQ(result.events_total, 0u);  // unknown stream: no FIRST_LOG
}

TEST(MinerRobustness, ExecutorStreamWithoutContainerIdIsUnattributed) {
  logging::LogBundle bundle;
  bundle.append("exec.log",
                line(0, "org.apache.spark.executor.CoarseGrainedExecutorBackend",
                     "Started daemon with process name: 1@x"));
  const AnalysisResult result = SdChecker().analyze(bundle);
  // FIRST_LOG synthesized but no id to bind to: counted, not attributed.
  EXPECT_EQ(result.events_total, 1u);
  EXPECT_EQ(result.events_unattributed, 1u);
  EXPECT_TRUE(result.timelines.empty());
}

TEST(MinerRobustness, DuplicatedRmLinesKeepFirstTimestamp) {
  logging::LogBundle bundle;
  const std::string cls =
      "org.apache.hadoop.yarn.server.resourcemanager.rmapp.RMAppImpl";
  const std::string msg =
      "application_1499100000000_0001 State change from NEW_SAVING to "
      "SUBMITTED on event = APP_NEW_SAVED";
  bundle.append("rm.log", line(100, cls, msg));
  bundle.append("rm.log", line(500, cls, msg));  // duplicated flush
  const AnalysisResult result = SdChecker().analyze(bundle);
  ASSERT_EQ(result.timelines.size(), 1u);
  const AppTimeline& timeline = result.timelines.begin()->second;
  EXPECT_EQ(timeline.ts(EventKind::kAppSubmitted), kEpoch + 100);
  EXPECT_EQ(result.events_total, 2u);  // the duplicate is mined, not lost
}

TEST(MinerRobustness, MapReduceOnlyCorpusDecomposesPartially) {
  // An MR app has driver-register and launching events but no Spark
  // FIRST_TASK: total must be absent, am/launching present.
  harness::ScenarioConfig scenario;
  scenario.seed = 41;
  harness::MrSubmissionPlan plan;
  plan.at = seconds(1);
  plan.app.num_maps = 4;
  plan.app.num_reduces = 1;
  plan.app.map_duration_median = seconds(3);
  scenario.mr_jobs.push_back(std::move(plan));
  const auto sim = harness::run_scenario(scenario);
  const AnalysisResult result = SdChecker().analyze(sim.logs);
  ASSERT_EQ(result.delays.size(), 1u);
  const Delays& delays = result.delays.begin()->second;
  EXPECT_FALSE(delays.total.has_value());  // no "Got assigned task"
  EXPECT_TRUE(delays.am.has_value());
  EXPECT_TRUE(delays.driver.has_value());  // MRAppMaster register
  EXPECT_FALSE(delays.alloc.has_value());  // no START/END_ALLO in MR
  EXPECT_EQ(delays.worker_launchings().size(), 5u);  // YarnChild first logs
  for (const std::int64_t launching : delays.worker_launchings()) {
    EXPECT_GT(launching, 0);
  }
}

TEST(MinerRobustness, TwoAppsInterleavedInOneRmLog) {
  logging::LogBundle bundle;
  const std::string cls =
      "org.apache.hadoop.yarn.server.resourcemanager.rmapp.RMAppImpl";
  bundle.append("rm.log",
                line(0, cls,
                     "application_1499100000000_0001 State change from "
                     "NEW_SAVING to SUBMITTED on event = APP_NEW_SAVED"));
  bundle.append("rm.log",
                line(5, cls,
                     "application_1499100000000_0002 State change from "
                     "NEW_SAVING to SUBMITTED on event = APP_NEW_SAVED"));
  bundle.append("rm.log",
                line(10, cls,
                     "application_1499100000000_0001 State change from "
                     "SUBMITTED to ACCEPTED on event = APP_ACCEPTED"));
  const AnalysisResult result = SdChecker().analyze(bundle);
  EXPECT_EQ(result.timelines.size(), 2u);
  EXPECT_TRUE(
      result.timelines.at(ApplicationId{kEpoch, 1}).has(EventKind::kAppAccepted));
  EXPECT_FALSE(
      result.timelines.at(ApplicationId{kEpoch, 2}).has(EventKind::kAppAccepted));
}

TEST(MinerRobustness, FirstLogUsesFileOrderNotMinTimestamp) {
  // The paper's rule is "the first log message" of the instance log —
  // file order.  A skewed later-timestamped first line still wins; this
  // documents the (faithful) behaviour rather than silently re-sorting.
  logging::LogBundle bundle;
  const std::string cls = "org.apache.spark.deploy.yarn.ApplicationMaster";
  bundle.append("driver.log", line(500, cls, "Registered signal handlers"));
  bundle.append("driver.log",
                line(100, cls,
                     "ApplicationAttemptId: appattempt_1499100000000_0001_"
                     "000001"));
  const MinedCorpus mined = mine(bundle);
  ASSERT_EQ(mined.streams.size(), 1u);
  bool saw_first_log = false;
  for (const auto event : mined.streams[0].events) {
    if (event.kind == EventKind::kDriverFirstLog) {
      saw_first_log = true;
      EXPECT_EQ(event.ts_ms, kEpoch + 500);
    }
  }
  EXPECT_TRUE(saw_first_log);
}

TEST(MinerRobustness, RotatedSegmentsReassembledInLogrotateOrder) {
  // The oldest lines live in the highest suffix; the unsuffixed base is
  // the newest.  Reassembly must restore the original line order, so
  // events come out as if the stream had never been rotated — and the
  // regrouping itself is reported as a rotation-gap diagnostic.
  const std::string cls =
      "org.apache.hadoop.yarn.server.resourcemanager.rmapp.RMAppImpl";
  logging::LogBundle bundle;
  bundle.append("rm.log.2",
                line(0, cls,
                     "application_1499100000000_0001 State change from "
                     "NEW_SAVING to SUBMITTED on event = APP_NEW_SAVED"));
  bundle.append("rm.log.1",
                line(200, cls,
                     "application_1499100000000_0001 State change from "
                     "SUBMITTED to ACCEPTED on event = APP_ACCEPTED"));
  bundle.append("rm.log",
                line(400, cls,
                     "application_1499100000000_0001 State change from "
                     "ACCEPTED to RUNNING on event = ATTEMPT_REGISTERED"));
  const MinedCorpus mined = mine(bundle);

  const MinedStream* rm = mined.stream("rm.log");
  ASSERT_NE(rm, nullptr);
  EXPECT_EQ(mined.streams.size(), 1u);  // one logical stream, not three
  EXPECT_EQ(rm->lines_total, 3u);
  EXPECT_EQ(rm->diag_counts.of(logging::DiagnosticKind::kRotationGap), 3u);
  // Correct reassembly keeps time monotonic: no regression diagnostic.
  EXPECT_EQ(rm->diag_counts.of(logging::DiagnosticKind::kTimestampRegression),
            0u);

  const AnalysisResult result = SdChecker().analyze(bundle);
  ASSERT_EQ(result.timelines.size(), 1u);
  const AppTimeline& timeline = result.timelines.begin()->second;
  EXPECT_EQ(timeline.ts(EventKind::kAppSubmitted), kEpoch + 0);
  EXPECT_EQ(timeline.ts(EventKind::kAppAccepted), kEpoch + 200);
  EXPECT_EQ(timeline.ts(EventKind::kAttemptRegistered), kEpoch + 400);
}

TEST(MinerRobustness, MidLineTruncationDiagnosedPerStream) {
  const std::string cls =
      "org.apache.hadoop.yarn.server.resourcemanager.rmapp.RMAppImpl";
  logging::LogBundle bundle;
  bundle.append("rm.log",
                line(0, cls,
                     "application_1499100000000_0001 State change from "
                     "NEW_SAVING to SUBMITTED on event = APP_NEW_SAVED"));
  // The write was cut after the timestamp reached disk.
  bundle.append("rm.log", logging::format_epoch_ms(kEpoch + 100) + " INF");
  bundle.append("clean.log", line(50, "com.example.Fine", "all good"));

  const MinedCorpus mined = mine(bundle);
  const MinedStream* rm = mined.stream("rm.log");
  ASSERT_NE(rm, nullptr);
  EXPECT_EQ(rm->diag_counts.of(logging::DiagnosticKind::kTruncatedLine), 1u);
  EXPECT_EQ(rm->lines_unparsed, 1u);

  // The clean stream is untouched: no diagnostics, same parse results.
  const MinedStream* clean = mined.stream("clean.log");
  ASSERT_NE(clean, nullptr);
  EXPECT_EQ(clean->diag_counts.total(), 0u);
  EXPECT_EQ(clean->lines_unparsed, 0u);

  // Event extraction on the valid rm.log line is unchanged.
  const AnalysisResult result = SdChecker().analyze(bundle);
  ASSERT_EQ(result.timelines.size(), 1u);
  EXPECT_EQ(result.timelines.begin()->second.ts(EventKind::kAppSubmitted),
            kEpoch + 0);
}

TEST(MinerRobustness, HeadTearDiagnosedAsTruncation) {
  logging::LogBundle bundle;
  // The stream begins mid-line: the head was rotated away mid-write.
  bundle.append("nm.log", "ate change from LOCALIZING to LOCALIZED");
  bundle.append("nm.log", line(10, "com.example.Nm", "healthy line"));
  const MinedCorpus mined = mine(bundle);
  const MinedStream* nm = mined.stream("nm.log");
  ASSERT_NE(nm, nullptr);
  EXPECT_EQ(nm->diag_counts.of(logging::DiagnosticKind::kTruncatedLine), 1u);
}

TEST(MinerRobustness, GarbageBytesDiagnosedEventsSurvive) {
  const std::string cls =
      "org.apache.hadoop.yarn.server.resourcemanager.rmapp.RMAppImpl";
  logging::LogBundle bundle;
  bundle.append("rm.log",
                line(0, cls,
                     "application_1499100000000_0001 State change from "
                     "NEW_SAVING to SUBMITTED on event = APP_NEW_SAVED"));
  bundle.append("rm.log", std::string("\x00\x01\xff\xfe garbage", 12));
  bundle.append("rm.log", std::string("\x00\x00\x00\x00", 4));
  bundle.append("rm.log",
                line(300, cls,
                     "application_1499100000000_0001 State change from "
                     "SUBMITTED to ACCEPTED on event = APP_ACCEPTED"));
  const MinedCorpus mined = mine(bundle);
  const MinedStream* rm = mined.stream("rm.log");
  ASSERT_NE(rm, nullptr);
  EXPECT_EQ(rm->diag_counts.of(logging::DiagnosticKind::kBinaryGarbage), 2u);
  EXPECT_EQ(rm->lines_unparsed, 2u);

  // Both valid lines still yield their events.
  const AnalysisResult result = SdChecker().analyze(bundle);
  ASSERT_EQ(result.timelines.size(), 1u);
  const AppTimeline& timeline = result.timelines.begin()->second;
  EXPECT_EQ(timeline.ts(EventKind::kAppSubmitted), kEpoch + 0);
  EXPECT_EQ(timeline.ts(EventKind::kAppAccepted), kEpoch + 300);
}

TEST(MinerRobustness, TimestampRegressionBeyondBudgetDiagnosed) {
  logging::LogBundle bundle;
  bundle.append("app.log", line(5000, "com.example.A", "later"));
  bundle.append("app.log", line(0, "com.example.A", "clock stepped back"));
  const MinedCorpus mined = mine(bundle);
  const MinedStream* app = mined.stream("app.log");
  ASSERT_NE(app, nullptr);
  EXPECT_EQ(
      app->diag_counts.of(logging::DiagnosticKind::kTimestampRegression), 1u);

  // Jitter within the budget is normal buffered-appender behaviour.
  logging::LogBundle jitter;
  jitter.append("app.log", line(500, "com.example.A", "later"));
  jitter.append("app.log", line(0, "com.example.A", "small jitter"));
  const MinedCorpus mined_jitter = mine(jitter);
  EXPECT_EQ(mined_jitter.diag_counts.of(
                logging::DiagnosticKind::kTimestampRegression),
            0u);
}

TEST(MinerRobustness, MergedBundlesFromTwoRunsKeepAppsSeparate) {
  harness::ScenarioConfig a;
  a.seed = 51;
  harness::SparkSubmissionPlan plan_a;
  plan_a.at = seconds(1);
  plan_a.app = spark::SparkAppConfig{};
  plan_a.app.name = "a";
  plan_a.app.num_executors = 2;
  plan_a.app.files_opened = 1;
  a.spark_jobs.push_back(std::move(plan_a));
  auto result_a = harness::run_scenario(a);

  // Second run with a different epoch -> different cluster timestamp, so
  // application ids cannot collide even though both are app #1.
  harness::ScenarioConfig b = a;
  b.cluster.epoch_base_ms += 86'400'000;
  auto result_b = harness::run_scenario(b);

  logging::LogBundle merged = std::move(result_a.logs);
  for (const std::string& name : result_b.logs.stream_names()) {
    for (const std::string& line : result_b.logs.lines(name)) {
      merged.append(name, line);
    }
  }
  const AnalysisResult analysis = SdChecker().analyze(merged);
  EXPECT_EQ(analysis.timelines.size(), 2u);
}

}  // namespace
}  // namespace sdc::checker
