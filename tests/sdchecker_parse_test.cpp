// Tests for SDchecker's first two stages: log4j line parsing and
// Table-I message extraction.
#include <gtest/gtest.h>

#include "sdchecker/extractor.hpp"
#include "sdchecker/parsed_line.hpp"

namespace sdc::checker {
namespace {

constexpr const char* kRmAppLine =
    "2017-07-03 16:40:00,123 INFO  "
    "org.apache.hadoop.yarn.server.resourcemanager.rmapp.RMAppImpl: "
    "application_1499100000000_0007 State change from SUBMITTED to ACCEPTED "
    "on event = APP_ACCEPTED";

// --- parse_line -------------------------------------------------------------

TEST(ParseLine, FullLine) {
  const auto parsed = parse_line(kRmAppLine);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->epoch_ms, 1'499'100'000'123);
  EXPECT_EQ(parsed->level, "INFO");
  EXPECT_EQ(short_class_name(parsed->logger), "RMAppImpl");
  EXPECT_TRUE(parsed->message.starts_with("application_1499100000000_0007"));
}

TEST(ParseLine, RejectsTruncatedAndGarbage) {
  EXPECT_FALSE(parse_line("").has_value());
  EXPECT_FALSE(parse_line("garbage").has_value());
  EXPECT_FALSE(parse_line("2017-07-03 16:40:00,123").has_value());
  EXPECT_FALSE(parse_line("2017-07-03 16:40:00,123 INFO ").has_value());
  // Stack-trace continuation lines are not log lines.
  EXPECT_FALSE(
      parse_line("\tat org.apache.spark.SparkContext.<init>(SparkContext"
                 ".scala:397)")
          .has_value());
  // Missing ": " separator.
  EXPECT_FALSE(
      parse_line("2017-07-03 16:40:00,123 INFO  org.example.NoSeparator")
          .has_value());
}

TEST(ParseLine, TruncatedTimestamps) {
  // ISO stamp cut mid-field, and a complete stamp with the line cut
  // right after it.
  EXPECT_FALSE(parse_line("2017-07-03 16:40:0").has_value());
  EXPECT_FALSE(parse_line("2017-07-03 16:40:00,12").has_value());
  EXPECT_FALSE(parse_line("2017-07-03 16:40:00,123 ").has_value());
  // Spark short stamp cut mid-field.
  EXPECT_FALSE(parse_line("17/07/03 16:40").has_value());
  EXPECT_FALSE(parse_line("17/07/03 16:4x:00 INFO X: y").has_value());
}

TEST(ParseLine, SeventeenCharSparkStampAtExactLineEnd) {
  // A valid 17-char Spark stamp that IS the whole line (truncated
  // write): nothing follows, so it must be rejected, not read past.
  EXPECT_FALSE(parse_line("17/07/03 16:40:00").has_value());
  // One space more, still no level/class.
  EXPECT_FALSE(parse_line("17/07/03 16:40:00 ").has_value());
  // Minimum viable short-stamp line parses.
  const auto ok = parse_line("17/07/03 16:40:00 INFO X: y");
  ASSERT_TRUE(ok.has_value());
  EXPECT_EQ(ok->logger, "X");
  EXPECT_EQ(ok->message, "y");
}

TEST(ParseLine, GarbageLevelTokens) {
  // Levels are upper-case letter runs; lower-case, digits and
  // punctuation where the level should be are rejected.
  EXPECT_FALSE(
      parse_line("2017-07-03 16:40:00,123 info  a.b.C: msg").has_value());
  EXPECT_FALSE(
      parse_line("2017-07-03 16:40:00,123 42  a.b.C: msg").has_value());
  EXPECT_FALSE(
      parse_line("2017-07-03 16:40:00,123 [INFO]  a.b.C: msg").has_value());
  // A level with no text after it at all.
  EXPECT_FALSE(parse_line("2017-07-03 16:40:00,123 INFO").has_value());
}

TEST(ParseLine, EmptyLoggerBeforeSeparator) {
  // A ": " separator at position 0 of the remainder must not yield an
  // empty logger class.
  EXPECT_FALSE(
      parse_line("2017-07-03 16:40:00,123 INFO : message").has_value());
  EXPECT_FALSE(
      parse_line("17/07/03 16:40:00 WARN : message").has_value());
}

TEST(ParseLine, WarnLevel) {
  const auto parsed = parse_line(
      "2017-07-03 16:40:00,000 WARN  a.b.C: something odd");
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->level, "WARN");
  EXPECT_EQ(parsed->message, "something odd");
}

TEST(ParseLine, ShortClassName) {
  EXPECT_EQ(short_class_name("a.b.c.D"), "D");
  EXPECT_EQ(short_class_name("Plain"), "Plain");
}

// --- id discovery -----------------------------------------------------------

TEST(Extractor, FindsApplicationIdDirect) {
  const auto app =
      find_application_id("app application_1499100000000_0042 accepted");
  ASSERT_TRUE(app.has_value());
  EXPECT_EQ(app->id, 42);
}

TEST(Extractor, FindsApplicationIdViaAttempt) {
  const auto app =
      find_application_id("ApplicationAttemptId: appattempt_1499100000000_"
                          "0042_000001");
  ASSERT_TRUE(app.has_value());
  EXPECT_EQ(app->id, 42);
  EXPECT_EQ(app->cluster_ts, 1'499'100'000'000);
}

TEST(Extractor, FindsContainerId) {
  const auto container = find_container_id(
      "Assigned container container_1499100000000_0042_01_000003 of capacity");
  ASSERT_TRUE(container.has_value());
  EXPECT_EQ(container->app.id, 42);
  EXPECT_EQ(container->id, 3);
}

TEST(Extractor, NoIdsInPlainText) {
  EXPECT_FALSE(find_application_id("no ids at all").has_value());
  EXPECT_FALSE(find_container_id("container-free message").has_value());
}

// --- transition phrasing -------------------------------------------------------

TEST(Extractor, ParseTransitionVariants) {
  const auto a = parse_transition("State change from SUBMITTED to ACCEPTED "
                                  "on event = APP_ACCEPTED");
  ASSERT_TRUE(a.has_value());
  EXPECT_EQ(a->from, "SUBMITTED");
  EXPECT_EQ(a->to, "ACCEPTED");

  const auto b = parse_transition("Container Transitioned from NEW to "
                                  "ALLOCATED");
  ASSERT_TRUE(b.has_value());
  EXPECT_EQ(b->from, "NEW");
  EXPECT_EQ(b->to, "ALLOCATED");

  const auto c = parse_transition(
      "Container container_1_2_3_4 transitioned from LOCALIZING to SCHEDULED");
  ASSERT_TRUE(c.has_value());
  EXPECT_EQ(c->from, "LOCALIZING");
  EXPECT_EQ(c->to, "SCHEDULED");

  EXPECT_FALSE(parse_transition("no transition here").has_value());
  EXPECT_FALSE(parse_transition("from only").has_value());
}

// --- line classification ----------------------------------------------------------

TEST(Extractor, ClassifyByLoggerClass) {
  const auto classify = [](const char* line) {
    const auto parsed = parse_line(line);
    EXPECT_TRUE(parsed.has_value()) << line;
    return classify_line(*parsed);
  };
  EXPECT_EQ(classify(kRmAppLine), StreamKind::kResourceManager);
  EXPECT_EQ(classify("2017-07-03 16:40:00,123 INFO  org.apache.hadoop.yarn."
                     "server.nodemanager.containermanager.container."
                     "ContainerImpl: Container container_1_2_3_4 transitioned "
                     "from NEW to LOCALIZING"),
            StreamKind::kNodeManager);
  EXPECT_EQ(classify("2017-07-03 16:40:00,123 INFO  org.apache.spark.deploy."
                     "yarn.ApplicationMaster: Registered signal handlers"),
            StreamKind::kDriver);
  EXPECT_EQ(classify("2017-07-03 16:40:00,123 INFO  org.apache.spark.executor."
                     "CoarseGrainedExecutorBackend: Started daemon"),
            StreamKind::kExecutor);
  EXPECT_EQ(classify("2017-07-03 16:40:00,123 INFO  org.apache.hadoop.mapred."
                     "YarnChild: YarnChild starting"),
            StreamKind::kExecutor);
  EXPECT_EQ(classify("2017-07-03 16:40:00,123 INFO  com.example.Other: x"),
            StreamKind::kUnknown);
}

// --- event extraction (Table I) ------------------------------------------------------

std::optional<EventBatch::View> extract(const std::string& line) {
  const auto parsed = parse_line(line);
  if (!parsed) return std::nullopt;
  EventBatch batch;
  if (!extract_event_into(*parsed, batch)) return std::nullopt;
  return batch[0];
}

std::string rm_container_line(const std::string& from, const std::string& to) {
  return "2017-07-03 16:40:01,000 INFO  org.apache.hadoop.yarn.server."
         "resourcemanager.rmcontainer.RMContainerImpl: "
         "container_1499100000000_0007_01_000002 Container Transitioned from " +
         from + " to " + to;
}

std::string nm_container_line(const std::string& from, const std::string& to) {
  return "2017-07-03 16:40:02,000 INFO  org.apache.hadoop.yarn.server."
         "nodemanager.containermanager.container.ContainerImpl: Container "
         "container_1499100000000_0007_01_000002 transitioned from " +
         from + " to " + to;
}

TEST(Extractor, ShortMessagePrefilterIsConservative) {
  // The skip bound is derived from the rule table: no rule's predicate
  // can fire on a message shorter than its token (plus the minimal
  // "from X to " scaffolding for transitions).
  const std::size_t bound = min_rule_message_len();
  EXPECT_GT(bound, 0u);
  for (const ExtractorRule& rule : extractor_rules()) {
    std::size_t need = rule.match == RuleMatch::kTransitionTo
                           ? rule.token.size() + 10
                           : rule.token.size();
    need = std::max(need, rule.also.size());
    EXPECT_LE(bound, need) << rule.token;
  }
  // The shortest real rule message still extracts...
  const auto end_allo = extract(
      "2017-07-03 16:40:00,000 INFO  org.apache.spark.deploy.yarn."
      "YarnAllocator: END_ALLO");
  ASSERT_TRUE(end_allo.has_value());
  EXPECT_EQ(end_allo->kind, EventKind::kEndAllo);
  // ...while a one-shorter message on the same class yields nothing.
  EXPECT_FALSE(extract("2017-07-03 16:40:00,000 INFO  org.apache.spark."
                       "deploy.yarn.YarnAllocator: END_ALL")
                   .has_value());
}

TEST(Extractor, RmAppEvents) {
  const auto submitted = extract(
      "2017-07-03 16:40:00,000 INFO  org.apache.hadoop.yarn.server."
      "resourcemanager.rmapp.RMAppImpl: application_1499100000000_0007 State "
      "change from NEW_SAVING to SUBMITTED on event = APP_NEW_SAVED");
  ASSERT_TRUE(submitted.has_value());
  EXPECT_EQ(submitted->kind, EventKind::kAppSubmitted);
  ASSERT_TRUE(submitted->app.has_value());
  EXPECT_EQ(submitted->app->id, 7);

  const auto accepted = extract(kRmAppLine);
  ASSERT_TRUE(accepted.has_value());
  EXPECT_EQ(accepted->kind, EventKind::kAppAccepted);

  const auto registered = extract(
      "2017-07-03 16:40:05,000 INFO  org.apache.hadoop.yarn.server."
      "resourcemanager.rmapp.RMAppImpl: application_1499100000000_0007 State "
      "change from ACCEPTED to RUNNING on event = ATTEMPT_REGISTERED");
  ASSERT_TRUE(registered.has_value());
  EXPECT_EQ(registered->kind, EventKind::kAttemptRegistered);
}

TEST(Extractor, RmContainerEvents) {
  EXPECT_EQ(extract(rm_container_line("NEW", "ALLOCATED"))->kind,
            EventKind::kContainerAllocated);
  EXPECT_EQ(extract(rm_container_line("ALLOCATED", "ACQUIRED"))->kind,
            EventKind::kContainerAcquired);
  EXPECT_EQ(extract(rm_container_line("ACQUIRED", "RUNNING"))->kind,
            EventKind::kRmContainerRunning);
  EXPECT_EQ(extract(rm_container_line("RUNNING", "COMPLETED"))->kind,
            EventKind::kRmContainerCompleted);
  EXPECT_EQ(extract(rm_container_line("ACQUIRED", "RELEASED"))->kind,
            EventKind::kRmContainerReleased);
  const auto allocated = extract(rm_container_line("NEW", "ALLOCATED"));
  ASSERT_TRUE(allocated->container.has_value());
  EXPECT_EQ(allocated->container->id, 2);
  ASSERT_TRUE(allocated->app.has_value());
  EXPECT_EQ(allocated->app->id, 7);
}

TEST(Extractor, NmContainerEvents) {
  EXPECT_EQ(extract(nm_container_line("NEW", "LOCALIZING"))->kind,
            EventKind::kNmLocalizing);
  EXPECT_EQ(extract(nm_container_line("LOCALIZING", "SCHEDULED"))->kind,
            EventKind::kNmScheduled);
  EXPECT_EQ(extract(nm_container_line("SCHEDULED", "RUNNING"))->kind,
            EventKind::kNmRunning);
  EXPECT_EQ(extract(nm_container_line("RUNNING", "EXITED_WITH_SUCCESS"))->kind,
            EventKind::kNmExited);
}

TEST(Extractor, SparkDriverEvents) {
  const auto reg = extract(
      "2017-07-03 16:40:07,000 INFO  org.apache.spark.deploy.yarn."
      "ApplicationMaster: Registering the ApplicationMaster with the "
      "ResourceManager");
  ASSERT_TRUE(reg.has_value());
  EXPECT_EQ(reg->kind, EventKind::kDriverRegister);

  const auto start = extract(
      "2017-07-03 16:40:07,100 INFO  org.apache.spark.deploy.yarn."
      "YarnAllocator: SDC START_ALLO requesting 4 executor containers");
  ASSERT_TRUE(start.has_value());
  EXPECT_EQ(start->kind, EventKind::kStartAllo);

  const auto end = extract(
      "2017-07-03 16:40:09,000 INFO  org.apache.spark.deploy.yarn."
      "YarnAllocator: SDC END_ALLO all 4 requested containers allocated");
  ASSERT_TRUE(end.has_value());
  EXPECT_EQ(end->kind, EventKind::kEndAllo);
}

TEST(Extractor, MrMasterRegisterCounts) {
  const auto reg = extract(
      "2017-07-03 16:40:07,000 INFO  org.apache.hadoop.mapreduce.v2.app."
      "MRAppMaster: Registering with the ResourceManager");
  ASSERT_TRUE(reg.has_value());
  EXPECT_EQ(reg->kind, EventKind::kDriverRegister);
}

TEST(Extractor, ExecutorFirstTask) {
  const auto task = extract(
      "2017-07-03 16:40:12,000 INFO  org.apache.spark.executor."
      "CoarseGrainedExecutorBackend: Got assigned task 0");
  ASSERT_TRUE(task.has_value());
  EXPECT_EQ(task->kind, EventKind::kExecutorFirstTask);
}

TEST(Extractor, NonSchedulingLinesIgnored) {
  EXPECT_FALSE(extract("2017-07-03 16:40:00,000 INFO  org.apache.spark."
                       "executor.Executor: Running task 0.0 in stage 0.0")
                   .has_value());
  EXPECT_FALSE(extract("2017-07-03 16:40:00,000 INFO  com.example.Noise: "
                       "unrelated message with application_1499100000000_0001")
                   .has_value());
}

// --- event metadata ------------------------------------------------------------------

TEST(Events, Table1Numbers) {
  EXPECT_EQ(table1_number(EventKind::kAppSubmitted), 1);
  EXPECT_EQ(table1_number(EventKind::kExecutorFirstTask), 14);
  EXPECT_EQ(table1_number(EventKind::kRmContainerReleased), 0);
}

TEST(Events, ContainerScoping) {
  EXPECT_TRUE(is_container_event(EventKind::kContainerAllocated));
  EXPECT_TRUE(is_container_event(EventKind::kExecutorFirstLog));
  EXPECT_FALSE(is_container_event(EventKind::kAppSubmitted));
  EXPECT_FALSE(is_container_event(EventKind::kDriverRegister));
  EXPECT_FALSE(is_container_event(EventKind::kStartAllo));
}

}  // namespace
}  // namespace sdc::checker
