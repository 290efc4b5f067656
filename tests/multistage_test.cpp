// Multi-stage job tests: later stages keep producing "Got assigned task"
// lines mid-execution, and the decomposition must key on the *first* task
// only (paper §IV-B: in-execution scheduling overlaps task runtime and is
// deliberately excluded from the scheduling delay).
#include <gtest/gtest.h>

#include <set>

#include "harness/scenario.hpp"
#include "mine_helpers.hpp"
#include "sdchecker/sdchecker.hpp"
#include "workloads/tpch.hpp"

namespace sdc {
namespace {

harness::ScenarioResult run_stages(std::int32_t stages,
                                   std::uint64_t seed = 801) {
  harness::ScenarioConfig scenario;
  scenario.seed = seed;
  harness::SparkSubmissionPlan plan;
  plan.at = seconds(1);
  plan.app = workloads::make_tpch_query(1, 2048, 3);
  plan.app.num_stages = stages;
  scenario.spark_jobs.push_back(std::move(plan));
  return harness::run_scenario(scenario);
}

TEST(MultiStage, EveryStageAssignsTasksToEveryExecutor) {
  const auto result = run_stages(4);
  const auto analysis = checker::SdChecker().analyze(result.logs);
  ASSERT_EQ(analysis.timelines.size(), 1u);
  const checker::AppTimeline& timeline = analysis.timelines.begin()->second;
  for (const auto& [cid, container] : timeline.containers) {
    if (cid.is_am()) continue;
    ASSERT_TRUE(container.has(checker::EventKind::kExecutorFirstTask));
  }
  // Each executor log yields one "Got assigned task" event per stage.
  const checker::MinedCorpus mined = checker::mine(result.logs);
  std::size_t executors = 0;
  for (const checker::MinedStream& stream : mined.streams) {
    if (stream.kind != checker::StreamKind::kExecutor) continue;
    ++executors;
    std::size_t first_tasks = 0;
    for (const auto e : stream.events) {
      if (e.kind == checker::EventKind::kExecutorFirstTask) ++first_tasks;
    }
    EXPECT_EQ(first_tasks, 4u) << stream.name;
  }
  EXPECT_EQ(executors, timeline.containers.size() - 1);
}

TEST(MultiStage, FirstTaskTimestampIsTheMinimumAssignment) {
  const auto result = run_stages(4);
  const auto analysis = checker::SdChecker().analyze(result.logs);
  const checker::AppTimeline& timeline = analysis.timelines.begin()->second;
  // Ground truth: the driver recorded the first assignment instant.
  const auto truth_ms = to_millis(result.jobs[0].first_task_at) +
                        1'499'100'000'000;
  const auto mined = timeline.min_worker_ts(checker::EventKind::kExecutorFirstTask);
  ASSERT_TRUE(mined.has_value());
  EXPECT_NEAR(static_cast<double>(*mined), static_cast<double>(truth_ms), 1.0);
}

TEST(MultiStage, StageCountDoesNotChangeDecomposedStructure) {
  // Different stage counts change the log volume, not which events the
  // decomposition uses; all invariants must keep holding.
  for (const std::int32_t stages : {1, 2, 6}) {
    const auto result = run_stages(stages, 802);
    const auto analysis = checker::SdChecker().analyze(result.logs);
    const auto& delays = analysis.delays.begin()->second;
    ASSERT_TRUE(delays.total && delays.in_app && delays.out_app) << stages;
    EXPECT_EQ(*delays.in_app + *delays.out_app, *delays.total);
    EXPECT_TRUE(analysis.anomalies.empty()) << stages;
    EXPECT_TRUE(
        analysis.graph_for(analysis.delays.begin()->first).validate().empty());
  }
}

TEST(MultiStage, TaskIdsAreGloballyUnique) {
  const auto result = run_stages(3, 803);
  std::set<std::string> tids;
  std::size_t assignments = 0;
  for (const auto& name : result.logs.stream_names()) {
    for (const auto& line : result.logs.lines(name)) {
      const auto pos = line.find("Got assigned task ");
      if (pos == std::string::npos) continue;
      ++assignments;
      tids.insert(line.substr(pos + 18));
    }
  }
  EXPECT_EQ(assignments, 3u * 3u);  // 3 executors x 3 stages
  EXPECT_EQ(tids.size(), assignments);
}

}  // namespace
}  // namespace sdc
