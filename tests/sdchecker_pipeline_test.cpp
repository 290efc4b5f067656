// Tests for SDchecker's mining / grouping / decomposition pipeline on a
// hand-crafted log bundle with exactly known timestamps, so every
// decomposed delay can be asserted to the millisecond.
#include <gtest/gtest.h>

#include <string>

#include "logging/log_bundle.hpp"
#include "logging/timestamp.hpp"
#include "mine_helpers.hpp"
#include "sdchecker/decompose.hpp"
#include "sdchecker/graph.hpp"
#include "sdchecker/grouping.hpp"
#include "sdchecker/sdchecker.hpp"

namespace sdc::checker {
namespace {

constexpr std::int64_t kEpoch = 1'499'100'000'000;

std::string line(std::int64_t offset_ms, const std::string& cls,
                 const std::string& message) {
  return logging::format_epoch_ms(kEpoch + offset_ms) + " INFO  " + cls + ": " +
         message;
}

const std::string kRmApp =
    "org.apache.hadoop.yarn.server.resourcemanager.rmapp.RMAppImpl";
const std::string kRmContainer =
    "org.apache.hadoop.yarn.server.resourcemanager.rmcontainer.RMContainerImpl";
const std::string kNmContainer =
    "org.apache.hadoop.yarn.server.nodemanager.containermanager.container."
    "ContainerImpl";
const std::string kAm = "org.apache.spark.deploy.yarn.ApplicationMaster";
const std::string kAllocator = "org.apache.spark.deploy.yarn.YarnAllocator";
const std::string kBackend =
    "org.apache.spark.executor.CoarseGrainedExecutorBackend";

const std::string kApp = "application_1499100000000_0001";
const std::string kAmCid = "container_1499100000000_0001_01_000001";
const std::string kExec1 = "container_1499100000000_0001_01_000002";
const std::string kExec2 = "container_1499100000000_0001_01_000003";

/// Builds a complete single-app bundle:
///   t=0      SUBMITTED            t=100    ACCEPTED
///   AM:      alloc 150, acquired 170, localizing 200, scheduled 700,
///            running 780, driver first log 1500
///   driver:  register 4500 (-> APT_REGISTERED 4510),
///            START_ALLO 4600, END_ALLO 6600
///   exec1:   alloc 5200, acq 5800, localizing 5900, sched 6500, run 6580,
///            first log 7300, first task 11300
///   exec2:   alloc 5300, acq 6300, localizing 6400, sched 7100, run 7200,
///            first log 8000, first task 11450
logging::LogBundle make_golden_bundle() {
  logging::LogBundle bundle;
  const auto rm = [&](std::int64_t t, const std::string& msg) {
    bundle.append("rm.log", line(t, kRmApp, msg));
  };
  const auto rmc = [&](std::int64_t t, const std::string& cid,
                       const std::string& from, const std::string& to) {
    bundle.append("rm.log", line(t, kRmContainer,
                                 cid + " Container Transitioned from " + from +
                                     " to " + to));
  };
  const auto nm = [&](std::int64_t t, const std::string& cid,
                      const std::string& from, const std::string& to) {
    bundle.append("nm-node01.cluster.log",
                  line(t, kNmContainer, "Container " + cid +
                                            " transitioned from " + from +
                                            " to " + to));
  };

  rm(0, kApp + " State change from NEW_SAVING to SUBMITTED on event = "
              "APP_NEW_SAVED");
  rm(100, kApp + " State change from SUBMITTED to ACCEPTED on event = "
                "APP_ACCEPTED");
  rmc(150, kAmCid, "NEW", "ALLOCATED");
  rmc(170, kAmCid, "ALLOCATED", "ACQUIRED");
  nm(200, kAmCid, "NEW", "LOCALIZING");
  nm(700, kAmCid, "LOCALIZING", "SCHEDULED");
  nm(780, kAmCid, "SCHEDULED", "RUNNING");

  bundle.append("driver.log",
                line(1500, kAm, "Registered signal handlers for [TERM]"));
  bundle.append("driver.log",
                line(1500, kAm,
                     "ApplicationAttemptId: appattempt_1499100000000_0001_"
                     "000001"));
  bundle.append("driver.log",
                line(4500, kAm,
                     "Registering the ApplicationMaster with the "
                     "ResourceManager"));
  rm(4510, kApp + " State change from ACCEPTED to RUNNING on event = "
                 "ATTEMPT_REGISTERED");
  bundle.append("driver.log",
                line(4600, kAllocator,
                     "SDC START_ALLO requesting 2 executor containers"));

  rmc(5200, kExec1, "NEW", "ALLOCATED");
  rmc(5300, kExec2, "NEW", "ALLOCATED");
  rmc(5800, kExec1, "ALLOCATED", "ACQUIRED");
  nm(5900, kExec1, "NEW", "LOCALIZING");
  rmc(6300, kExec2, "ALLOCATED", "ACQUIRED");
  nm(6400, kExec2, "NEW", "LOCALIZING");
  nm(6500, kExec1, "LOCALIZING", "SCHEDULED");
  nm(6580, kExec1, "SCHEDULED", "RUNNING");
  bundle.append("driver.log",
                line(6600, kAllocator,
                     "SDC END_ALLO all 2 requested containers allocated"));
  nm(7100, kExec2, "LOCALIZING", "SCHEDULED");
  nm(7200, kExec2, "SCHEDULED", "RUNNING");

  bundle.append("exec1.log",
                line(7300, kBackend, "Started daemon with process name: 1@x"));
  bundle.append("exec1.log",
                line(7300, kBackend, "Connecting to driver for container " +
                                         kExec1));
  bundle.append("exec2.log",
                line(8000, kBackend, "Started daemon with process name: 2@y"));
  bundle.append("exec2.log",
                line(8000, kBackend, "Connecting to driver for container " +
                                         kExec2));
  bundle.append("exec1.log", line(11300, kBackend, "Got assigned task 0"));
  bundle.append("exec2.log", line(11450, kBackend, "Got assigned task 1"));
  // Second task on exec1 — must NOT move FIRST_TASK.
  bundle.append("exec1.log", line(15000, kBackend, "Got assigned task 2"));
  return bundle;
}

// --- miner ------------------------------------------------------------------

TEST(Miner, StreamKindsAndBinding) {
  const auto bundle = make_golden_bundle();
  const MinedCorpus mined = mine(bundle);
  // driver.log, exec1.log, exec2.log, nm-node01.cluster.log, rm.log
  ASSERT_EQ(mined.streams.size(), 5u);
  std::map<std::string, StreamKind> kinds;
  for (const MinedStream& s : mined.streams) kinds[s.name] = s.kind;
  EXPECT_EQ(kinds.at("rm.log"), StreamKind::kResourceManager);
  EXPECT_EQ(kinds.at("nm-node01.cluster.log"), StreamKind::kNodeManager);
  EXPECT_EQ(kinds.at("driver.log"), StreamKind::kDriver);
  EXPECT_EQ(kinds.at("exec1.log"), StreamKind::kExecutor);
  EXPECT_EQ(kinds.at("exec2.log"), StreamKind::kExecutor);
}

TEST(Miner, SynthesizesFirstLogEvents) {
  const auto bundle = make_golden_bundle();
  const MinedCorpus mined = mine(bundle);
  std::int64_t driver_first = -1;
  std::int64_t exec_first_min = -1;
  for (const MinedStream& stream : mined.streams) {
    for (const auto e : stream.events) {
      if (e.kind == EventKind::kDriverFirstLog) driver_first = e.ts_ms;
      if (e.kind == EventKind::kExecutorFirstLog &&
          (exec_first_min < 0 || e.ts_ms < exec_first_min)) {
        exec_first_min = e.ts_ms;
      }
    }
  }
  EXPECT_EQ(driver_first, kEpoch + 1500);
  EXPECT_EQ(exec_first_min, kEpoch + 7300);
}

TEST(Miner, BindsExecutorStreamToContainer) {
  const auto bundle = make_golden_bundle();
  const MinedCorpus mined = mine(bundle);
  for (const MinedStream& stream : mined.streams) {
    if (stream.name == "exec1.log") {
      EXPECT_EQ(stream.kind, StreamKind::kExecutor);
      ASSERT_TRUE(stream.bound_container.has_value());
      EXPECT_EQ(stream.bound_container->str(), kExec1);
      ASSERT_TRUE(stream.bound_app.has_value());
      EXPECT_EQ(stream.bound_app->id, 1);
    }
    if (stream.name == "driver.log") {
      EXPECT_EQ(stream.kind, StreamKind::kDriver);
      ASSERT_TRUE(stream.bound_app.has_value());
      EXPECT_EQ(stream.bound_app->id, 1);
    }
  }
}

TEST(Miner, ParallelMiningMatchesSerial) {
  const auto bundle = make_golden_bundle();
  expect_same_mine(mine(bundle, MinerOptions{1}),
                   mine(bundle, MinerOptions{4}));
}

TEST(Miner, CountsUnparsableLines) {
  logging::LogBundle bundle = make_golden_bundle();
  bundle.append("rm.log", "corrupted line without structure");
  bundle.append("rm.log", "\tat org.apache.Something(Stack.java:1)");
  const MinedCorpus mined = mine(bundle);
  EXPECT_EQ(mined.lines_unparsed, 2u);
}

// --- grouping ------------------------------------------------------------------

TEST(Grouping, OneAppThreeContainers) {
  const AnalysisResult grouped = SdChecker().analyze(make_golden_bundle());
  ASSERT_EQ(grouped.timelines.size(), 1u);
  EXPECT_EQ(grouped.events_unattributed, 0u);
  const AppTimeline& app = grouped.timelines.begin()->second;
  EXPECT_EQ(app.containers.size(), 3u);
  ASSERT_NE(app.am_container(), nullptr);
  EXPECT_EQ(app.worker_containers().size(), 2u);
}

TEST(Grouping, FirstOccurrenceWinsAndCountsAccumulate) {
  const AnalysisResult grouped = SdChecker().analyze(make_golden_bundle());
  const AppTimeline& app = grouped.timelines.begin()->second;
  const auto exec1 = ContainerId::parse(kExec1);
  ASSERT_TRUE(exec1.has_value());
  const ContainerTimeline& c = app.containers.at(*exec1);
  EXPECT_EQ(c.ts(EventKind::kExecutorFirstTask), kEpoch + 11300);
  // The later "Got assigned task" line is mined too; only grouping keeps
  // the first.
  const MinedCorpus mined = mine(make_golden_bundle());
  const MinedStream* stream = mined.stream("exec1.log");
  ASSERT_NE(stream, nullptr);
  std::size_t first_tasks = 0;
  for (const auto e : stream->events) {
    if (e.kind == EventKind::kExecutorFirstTask) ++first_tasks;
  }
  EXPECT_EQ(first_tasks, 2u);
}

TEST(Grouping, MinMaxWorkerTimestamps) {
  const AnalysisResult grouped = SdChecker().analyze(make_golden_bundle());
  const AppTimeline& app = grouped.timelines.begin()->second;
  EXPECT_EQ(app.min_worker_ts(EventKind::kNmRunning), kEpoch + 6580);
  EXPECT_EQ(app.max_worker_ts(EventKind::kNmRunning), kEpoch + 7200);
  EXPECT_EQ(app.min_worker_ts(EventKind::kExecutorFirstTask), kEpoch + 11300);
}

// --- decomposition -----------------------------------------------------------------

TEST(Decompose, GoldenBundleExactValues) {
  const AnalysisResult grouped = SdChecker().analyze(make_golden_bundle());
  const Delays delays = decompose(grouped.timelines.begin()->second);

  EXPECT_EQ(delays.total, 11300);          // 0 -> 11300
  EXPECT_EQ(delays.am, 4510);              // 0 -> 4510
  EXPECT_EQ(delays.cf, 6580);              // first exec RUNNING
  EXPECT_EQ(delays.cl, 7200);              // last exec RUNNING
  EXPECT_EQ(delays.cl_minus_cf, 620);
  EXPECT_EQ(delays.driver, 3000);          // 1500 -> 4500
  EXPECT_EQ(delays.executor, 4000);        // 7300 -> 11300
  EXPECT_EQ(delays.in_app, 7000);
  EXPECT_EQ(delays.out_app, 4300);         // total - in
  EXPECT_EQ(delays.alloc, 2000);           // 4600 -> 6600

  // Per-container components.
  ASSERT_EQ(delays.containers.size(), 3u);
  const auto acq = delays.worker_acquisitions();
  ASSERT_EQ(acq.size(), 2u);
  EXPECT_EQ(acq[0], 600);   // exec1: 5200 -> 5800
  EXPECT_EQ(acq[1], 1000);  // exec2: 5300 -> 6300
  const auto loc = delays.worker_localizations();
  EXPECT_EQ(loc[0], 600);  // 5900 -> 6500
  EXPECT_EQ(loc[1], 700);  // 6400 -> 7100
  const auto queue = delays.worker_queuings();
  EXPECT_EQ(queue[0], 80);
  EXPECT_EQ(queue[1], 100);
  const auto launch = delays.worker_launchings();
  EXPECT_EQ(launch[0], 720);  // 6580 -> 7300
  EXPECT_EQ(launch[1], 800);  // 7200 -> 8000

  // AM container launching ends at the *driver's* first log.
  for (const ContainerDelays& c : delays.containers) {
    if (c.is_am) {
      EXPECT_EQ(c.localization, 500);  // 200 -> 700
      EXPECT_EQ(c.launching, 720);     // 780 -> 1500
    }
  }
}

TEST(Decompose, IdentityInPlusOutEqualsTotal) {
  const AnalysisResult grouped = SdChecker().analyze(make_golden_bundle());
  const Delays delays = decompose(grouped.timelines.begin()->second);
  ASSERT_TRUE(delays.total && delays.in_app && delays.out_app);
  EXPECT_EQ(*delays.in_app + *delays.out_app, *delays.total);
}

TEST(Decompose, MissingEventsYieldNullopt) {
  logging::LogBundle bundle;
  bundle.append("rm.log",
                line(0, kRmApp, kApp + " State change from NEW_SAVING to "
                                       "SUBMITTED on event = APP_NEW_SAVED"));
  const AnalysisResult grouped = SdChecker().analyze(bundle);
  ASSERT_EQ(grouped.timelines.size(), 1u);
  const Delays delays = decompose(grouped.timelines.begin()->second);
  EXPECT_FALSE(delays.total.has_value());
  EXPECT_FALSE(delays.am.has_value());
  EXPECT_FALSE(delays.driver.has_value());
  EXPECT_FALSE(delays.in_app.has_value());
  EXPECT_FALSE(delays.out_app.has_value());
}

// --- graph ---------------------------------------------------------------------------

TEST(Graph, GoldenBundleIsTemporallyConsistent) {
  const AnalysisResult grouped = SdChecker().analyze(make_golden_bundle());
  const SchedulingGraph graph =
      SchedulingGraph::build(grouped.timelines.begin()->second);
  EXPECT_GT(graph.nodes().size(), 15u);
  EXPECT_GT(graph.edges().size(), 15u);
  EXPECT_TRUE(graph.validate().empty());
}

TEST(Graph, DetectsBackwardsEdgeUnderSkew) {
  // Shift the NM log 10 s into the future: RM ACQUIRED -> NM LOCALIZING
  // edges now go backwards.
  logging::LogBundle bundle;
  const auto rm_lines = make_golden_bundle();
  for (const auto& name : rm_lines.stream_names()) {
    for (const auto& raw : rm_lines.lines(name)) {
      if (name.rfind("nm-", 0) == 0) {
        const auto ts = logging::parse_epoch_ms(raw.substr(0, 23));
        ASSERT_TRUE(ts.has_value());
        bundle.append(name,
                      logging::format_epoch_ms(*ts - 10'000) + raw.substr(23));
      } else {
        bundle.append(name, raw);
      }
    }
  }
  const AnalysisResult grouped = SdChecker().analyze(bundle);
  const SchedulingGraph graph =
      SchedulingGraph::build(grouped.timelines.begin()->second);
  EXPECT_FALSE(graph.validate().empty());
}

TEST(Graph, DotOutputContainsNodesAndShapes) {
  const AnalysisResult grouped = SdChecker().analyze(make_golden_bundle());
  const std::string dot =
      SchedulingGraph::build(grouped.timelines.begin()->second).to_dot();
  EXPECT_NE(dot.find("digraph scheduling"), std::string::npos);
  EXPECT_NE(dot.find("SUBMITTED (1)"), std::string::npos);
  EXPECT_NE(dot.find("FIRST_TASK (14)"), std::string::npos);
  EXPECT_NE(dot.find("shape=ellipse"), std::string::npos);
  EXPECT_NE(dot.find("shape=box"), std::string::npos);
  EXPECT_NE(dot.find("style=dashed"), std::string::npos);
}

// --- façade ------------------------------------------------------------------------------

TEST(SdChecker, AnalyzeGoldenBundle) {
  const AnalysisResult result = SdChecker().analyze(make_golden_bundle());
  EXPECT_EQ(result.timelines.size(), 1u);
  EXPECT_EQ(result.delays.size(), 1u);
  EXPECT_EQ(result.aggregate.app_count(), 1u);
  EXPECT_TRUE(result.anomalies.empty());
  EXPECT_EQ(result.events_unattributed, 0u);
  const auto graph = result.graph_for(result.timelines.begin()->first);
  EXPECT_TRUE(graph.validate().empty());
  EXPECT_THROW(result.graph_for(ApplicationId{1, 99}), std::invalid_argument);
}

}  // namespace
}  // namespace sdc::checker
