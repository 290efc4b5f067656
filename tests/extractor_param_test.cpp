// Parameterized sweep over every identified Table-I message pattern
// (TEST_P): each case is (raw log line, expected kind, expected app,
// expected container), exercised through the full parse->extract path,
// plus fuzzed id round-trips.
#include <gtest/gtest.h>

#include <optional>
#include <string>

#include "common/rng.hpp"
#include "sdchecker/extractor.hpp"
#include "sdchecker/parsed_line.hpp"

namespace sdc::checker {
namespace {

struct MessageCase {
  const char* name;
  const char* line;
  EventKind kind;
  std::int32_t app_id;        // 0 = none expected
  std::int64_t container_id;  // 0 = none expected
};

std::ostream& operator<<(std::ostream& os, const MessageCase& c) {
  return os << c.name;
}

constexpr const char* kTs = "2017-07-03 16:40:00,123 INFO  ";

class Table1Messages : public ::testing::TestWithParam<MessageCase> {};

TEST_P(Table1Messages, ExtractsKindAndIds) {
  const MessageCase& message_case = GetParam();
  const auto parsed = parse_line(message_case.line);
  ASSERT_TRUE(parsed.has_value());
  EventBatch batch;
  ASSERT_TRUE(extract_event_into(*parsed, batch));
  ASSERT_EQ(batch.size(), 1u);
  const EventBatch::View event = batch[0];
  EXPECT_EQ(event.kind, message_case.kind);
  EXPECT_EQ(event.ts_ms, 1'499'100'000'123);
  if (message_case.app_id > 0) {
    ASSERT_TRUE(event.app.has_value());
    EXPECT_EQ(event.app->id, message_case.app_id);
  }
  if (message_case.container_id > 0) {
    ASSERT_TRUE(event.container.has_value());
    EXPECT_EQ(event.container->id, message_case.container_id);
  } else {
    EXPECT_FALSE(event.container.has_value());
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllPatterns, Table1Messages,
    ::testing::Values(
        MessageCase{
            "Submitted",
            "2017-07-03 16:40:00,123 INFO  org.apache.hadoop.yarn.server."
            "resourcemanager.rmapp.RMAppImpl: application_1499100000000_0005 "
            "State change from NEW_SAVING to SUBMITTED on event = "
            "APP_NEW_SAVED",
            EventKind::kAppSubmitted, 5, 0},
        MessageCase{
            "Accepted",
            "2017-07-03 16:40:00,123 INFO  org.apache.hadoop.yarn.server."
            "resourcemanager.rmapp.RMAppImpl: application_1499100000000_0005 "
            "State change from SUBMITTED to ACCEPTED on event = APP_ACCEPTED",
            EventKind::kAppAccepted, 5, 0},
        MessageCase{
            "AttemptRegistered",
            "2017-07-03 16:40:00,123 INFO  org.apache.hadoop.yarn.server."
            "resourcemanager.rmapp.RMAppImpl: application_1499100000000_0005 "
            "State change from ACCEPTED to RUNNING on event = "
            "ATTEMPT_REGISTERED",
            EventKind::kAttemptRegistered, 5, 0},
        MessageCase{
            "Allocated",
            "2017-07-03 16:40:00,123 INFO  org.apache.hadoop.yarn.server."
            "resourcemanager.rmcontainer.RMContainerImpl: "
            "container_1499100000000_0005_01_000003 Container Transitioned "
            "from NEW to ALLOCATED",
            EventKind::kContainerAllocated, 5, 3},
        MessageCase{
            "Acquired",
            "2017-07-03 16:40:00,123 INFO  org.apache.hadoop.yarn.server."
            "resourcemanager.rmcontainer.RMContainerImpl: "
            "container_1499100000000_0005_01_000003 Container Transitioned "
            "from ALLOCATED to ACQUIRED",
            EventKind::kContainerAcquired, 5, 3},
        MessageCase{
            "Localizing",
            "2017-07-03 16:40:00,123 INFO  org.apache.hadoop.yarn.server."
            "nodemanager.containermanager.container.ContainerImpl: Container "
            "container_1499100000000_0005_01_000003 transitioned from NEW to "
            "LOCALIZING",
            EventKind::kNmLocalizing, 5, 3},
        MessageCase{
            "Scheduled",
            "2017-07-03 16:40:00,123 INFO  org.apache.hadoop.yarn.server."
            "nodemanager.containermanager.container.ContainerImpl: Container "
            "container_1499100000000_0005_01_000003 transitioned from "
            "LOCALIZING to SCHEDULED",
            EventKind::kNmScheduled, 5, 3},
        MessageCase{
            "Running",
            "2017-07-03 16:40:00,123 INFO  org.apache.hadoop.yarn.server."
            "nodemanager.containermanager.container.ContainerImpl: Container "
            "container_1499100000000_0005_01_000003 transitioned from "
            "SCHEDULED to RUNNING",
            EventKind::kNmRunning, 5, 3},
        MessageCase{
            "DriverRegister",
            "2017-07-03 16:40:00,123 INFO  org.apache.spark.deploy.yarn."
            "ApplicationMaster: Registering the ApplicationMaster with the "
            "ResourceManager",
            EventKind::kDriverRegister, 0, 0},
        MessageCase{
            "MrRegister",
            "2017-07-03 16:40:00,123 INFO  org.apache.hadoop.mapreduce.v2."
            "app.MRAppMaster: Registering with the ResourceManager",
            EventKind::kDriverRegister, 0, 0},
        MessageCase{
            "StartAllo",
            "2017-07-03 16:40:00,123 INFO  org.apache.spark.deploy.yarn."
            "YarnAllocator: SDC START_ALLO requesting 4 executor containers",
            EventKind::kStartAllo, 0, 0},
        MessageCase{
            "EndAllo",
            "2017-07-03 16:40:00,123 INFO  org.apache.spark.deploy.yarn."
            "YarnAllocator: SDC END_ALLO all 4 requested containers "
            "allocated",
            EventKind::kEndAllo, 0, 0},
        MessageCase{
            "FirstTask",
            "2017-07-03 16:40:00,123 INFO  org.apache.spark.executor."
            "CoarseGrainedExecutorBackend: Got assigned task 17",
            EventKind::kExecutorFirstTask, 0, 0},
        MessageCase{
            "Released",
            "2017-07-03 16:40:00,123 INFO  org.apache.hadoop.yarn.server."
            "resourcemanager.rmcontainer.RMContainerImpl: "
            "container_1499100000000_0005_01_000003 Container Transitioned "
            "from ACQUIRED to RELEASED",
            EventKind::kRmContainerReleased, 5, 3},
        MessageCase{
            "AppFinished",
            "2017-07-03 16:40:00,123 INFO  org.apache.hadoop.yarn.server."
            "resourcemanager.rmapp.RMAppImpl: application_1499100000000_0005 "
            "State change from FINAL_SAVING to FINISHED on event = "
            "APP_UPDATE_SAVED",
            EventKind::kAppFinished, 5, 0}),
    [](const ::testing::TestParamInfo<MessageCase>& info) {
      return info.param.name;
    });

// --- fuzzed id round-trips --------------------------------------------------

class IdFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(IdFuzz, RoundTripRandomIds) {
  Rng rng(GetParam());
  for (int i = 0; i < 200; ++i) {
    const ApplicationId app{rng.uniform_int(0, 9'999'999'999'999),
                            static_cast<std::int32_t>(rng.uniform_int(1, 99'999))};
    EXPECT_EQ(ApplicationId::parse(app.str()), app);
    const ContainerId container{app,
                                static_cast<std::int32_t>(rng.uniform_int(1, 9)),
                                rng.uniform_int(1, 9'999'999)};
    EXPECT_EQ(ContainerId::parse(container.str()), container);
    // Embedded in realistic message text, discovery still works.
    const std::string msg =
        "allocated " + container.str() + " for " + app.str() + " on host";
    EXPECT_EQ(find_container_id(msg), container);
    EXPECT_EQ(find_application_id(msg)->cluster_ts, app.cluster_ts);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, IdFuzz, ::testing::Range<std::uint64_t>(0, 6));

}  // namespace
}  // namespace sdc::checker
