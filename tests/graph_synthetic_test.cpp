// Synthetic scheduling-graph tests beyond the golden pipeline cases:
// degenerate timelines, released containers, replacement semantics,
// DOT structural checks.
#include <gtest/gtest.h>

#include "sdchecker/graph.hpp"

namespace sdc::checker {
namespace {

constexpr std::int64_t kT0 = 1'499'100'000'000;

AppTimeline timeline_with(const ApplicationId& app) {
  AppTimeline t;
  t.app = app;
  return t;
}

void put(AppTimeline& t, EventKind kind, std::int64_t offset) {
  t.first_ts[kind] = kT0 + offset;
}

void put(ContainerTimeline& c, EventKind kind, std::int64_t offset) {
  c.first_ts[kind] = kT0 + offset;
}

TEST(GraphSynthetic, EmptyTimelineGivesEmptyGraph) {
  const AppTimeline empty = timeline_with(ApplicationId{1, 1});
  const SchedulingGraph graph = SchedulingGraph::build(empty);
  EXPECT_TRUE(graph.nodes().empty());
  EXPECT_TRUE(graph.edges().empty());
  EXPECT_TRUE(graph.validate().empty());
  EXPECT_NE(graph.to_dot().find("digraph scheduling"), std::string::npos);
}

TEST(GraphSynthetic, AppOnlyChain) {
  AppTimeline t = timeline_with(ApplicationId{1, 2});
  put(t, EventKind::kAppSubmitted, 0);
  put(t, EventKind::kAppAccepted, 5);
  put(t, EventKind::kAttemptRegistered, 4000);
  const SchedulingGraph graph = SchedulingGraph::build(t);
  EXPECT_EQ(graph.nodes().size(), 3u);
  EXPECT_EQ(graph.edges().size(), 2u);
  EXPECT_TRUE(graph.validate().empty());
}

TEST(GraphSynthetic, NeverUsedContainerGetsReleasedEdge) {
  AppTimeline t = timeline_with(ApplicationId{1, 3});
  put(t, EventKind::kAppSubmitted, 0);
  ContainerTimeline c;
  c.id = ContainerId{{1, 3}, 1, 2};
  put(c, EventKind::kContainerAllocated, 100);
  put(c, EventKind::kContainerAcquired, 150);
  put(c, EventKind::kRmContainerReleased, 30'000);
  t.containers[c.id] = c;
  const SchedulingGraph graph = SchedulingGraph::build(t);
  EXPECT_TRUE(graph.validate().empty());
  // allocated->acquired and allocated->released edges exist.
  EXPECT_EQ(graph.edges().size(), 2u);
}

TEST(GraphSynthetic, ReplacementContainerSkipsEndAlloEdge) {
  AppTimeline t = timeline_with(ApplicationId{1, 4});
  put(t, EventKind::kStartAllo, 1000);
  put(t, EventKind::kEndAllo, 3000);
  // Original container: acquired before END_ALLO -> edge present.
  ContainerTimeline original;
  original.id = ContainerId{{1, 4}, 1, 2};
  put(original, EventKind::kContainerAllocated, 1500);
  put(original, EventKind::kContainerAcquired, 2000);
  t.containers[original.id] = original;
  // Replacement: acquired after END_ALLO -> edge must be skipped.
  ContainerTimeline replacement;
  replacement.id = ContainerId{{1, 4}, 1, 3};
  put(replacement, EventKind::kContainerAllocated, 8000);
  put(replacement, EventKind::kContainerAcquired, 9000);
  t.containers[replacement.id] = replacement;

  const SchedulingGraph graph = SchedulingGraph::build(t);
  EXPECT_TRUE(graph.validate().empty());
  // Count edges into END_ALLO: start_allo->end + one acquired->end.
  std::size_t into_end = 0;
  for (const GraphEdge& edge : graph.edges()) {
    if (graph.nodes()[edge.to].kind == EventKind::kEndAllo) ++into_end;
  }
  EXPECT_EQ(into_end, 2u);
}

TEST(GraphSynthetic, FailedContainerChainValidates) {
  AppTimeline t = timeline_with(ApplicationId{1, 5});
  ContainerTimeline c;
  c.id = ContainerId{{1, 5}, 1, 2};
  put(c, EventKind::kContainerAllocated, 0);
  put(c, EventKind::kContainerAcquired, 100);
  put(c, EventKind::kNmLocalizing, 200);
  put(c, EventKind::kNmScheduled, 800);
  put(c, EventKind::kNmRunning, 900);
  put(c, EventKind::kNmFailed, 1200);
  t.containers[c.id] = c;
  const SchedulingGraph graph = SchedulingGraph::build(t);
  EXPECT_TRUE(graph.validate().empty());
  bool failed_node = false;
  for (const GraphNode& node : graph.nodes()) {
    if (node.kind == EventKind::kNmFailed) failed_node = true;
  }
  EXPECT_TRUE(failed_node);
}

TEST(GraphSynthetic, DotEscapesAndLabelsEveryNode) {
  AppTimeline t = timeline_with(ApplicationId{1, 6});
  put(t, EventKind::kAppSubmitted, 0);
  put(t, EventKind::kDriverFirstLog, 1500);
  const std::string dot = SchedulingGraph::build(t).to_dot();
  EXPECT_NE(dot.find("n0 ["), std::string::npos);
  EXPECT_NE(dot.find("n1 ["), std::string::npos);
  EXPECT_NE(dot.find("shape=box"), std::string::npos);      // YARN state
  EXPECT_NE(dot.find("shape=ellipse"), std::string::npos);  // Spark state
}

}  // namespace
}  // namespace sdc::checker
