// Real-world log format variants the tool must accept beyond the
// simulator's own output: Hadoop 2.8+ epoch-bearing container ids and
// Spark's default second-precision log4j pattern.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>

#include "sdchecker/extractor.hpp"
#include "sdchecker/parsed_line.hpp"
#include "sdchecker/sdchecker.hpp"

namespace sdc::checker {
namespace {

// --- epoch-bearing container ids (container_eNN_...) -------------------------

TEST(RealWorld, EpochContainerIdParses) {
  const auto id =
      ContainerId::parse("container_e17_1499100000000_0005_01_000003");
  ASSERT_TRUE(id.has_value());
  EXPECT_EQ(id->app.cluster_ts, 1'499'100'000'000);
  EXPECT_EQ(id->app.id, 5);
  EXPECT_EQ(id->attempt, 1);
  EXPECT_EQ(id->id, 3);
}

TEST(RealWorld, EpochAndPlainFormsIdentifySameContainer) {
  const auto plain = ContainerId::parse("container_1499100000000_0005_01_000003");
  const auto epoch = ContainerId::parse("container_e42_1499100000000_0005_01_000003");
  ASSERT_TRUE(plain && epoch);
  EXPECT_EQ(*plain, *epoch);
}

TEST(RealWorld, MalformedEpochRejected) {
  EXPECT_FALSE(ContainerId::parse("container_e_1_1_1_1").has_value());
  EXPECT_FALSE(ContainerId::parse("container_ex_1_1_1_1").has_value());
}

TEST(RealWorld, EpochIdDiscoveredInsideMessage) {
  const auto id = find_container_id(
      "Assigned container container_e17_1499100000000_0005_01_000002 of "
      "capacity <memory:4096>");
  ASSERT_TRUE(id.has_value());
  EXPECT_EQ(id->id, 2);
}

// --- Spark default console pattern (yy/MM/dd HH:mm:ss, no millis) ------------

TEST(RealWorld, SparkShortTimestampParses) {
  const auto parsed = parse_line(
      "17/07/03 16:40:00 INFO CoarseGrainedExecutorBackend: Got assigned "
      "task 0");
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->epoch_ms, 1'499'100'000'000);  // second precision
  EXPECT_EQ(parsed->level, "INFO");
  EXPECT_EQ(parsed->logger, "CoarseGrainedExecutorBackend");
  EXPECT_EQ(parsed->message, "Got assigned task 0");
}

TEST(RealWorld, SparkShortFormatRejectsGarbage) {
  EXPECT_FALSE(parse_line("17/13/03 16:40:00 INFO X: y").has_value());
  EXPECT_FALSE(parse_line("17/07/03 26:40:00 INFO X: y").has_value());
  EXPECT_FALSE(parse_line("17/07/03 16:40 INFO X: y").has_value());
}

TEST(RealWorld, ShortFormatExecutorStreamMinesEndToEnd) {
  // A realistic Spark-2.2 executor stdout captured with default log4j:
  // short class names, second-precision stamps.
  logging::LogBundle bundle;
  bundle.append("stderr",
                "17/07/03 16:40:07 INFO CoarseGrainedExecutorBackend: Started "
                "daemon with process name: 3119@node07");
  bundle.append("stderr",
                "17/07/03 16:40:07 INFO SecurityManager: Changing view acls "
                "to: yarn,spark");
  bundle.append("stderr",
                "17/07/03 16:40:08 INFO CoarseGrainedExecutorBackend: "
                "Connecting to driver for container "
                "container_e17_1499100000000_0001_01_000002");
  bundle.append("stderr",
                "17/07/03 16:40:12 INFO CoarseGrainedExecutorBackend: Got "
                "assigned task 0");
  const AnalysisResult result = SdChecker().analyze(bundle);
  EXPECT_EQ(result.lines_unparsed, 0u);
  ASSERT_EQ(result.timelines.size(), 1u);
  const AppTimeline& timeline = result.timelines.begin()->second;
  ASSERT_EQ(timeline.containers.size(), 1u);
  const ContainerTimeline& container = timeline.containers.begin()->second;
  EXPECT_EQ(container.ts(EventKind::kExecutorFirstLog), 1'499'100'007'000);
  EXPECT_EQ(container.ts(EventKind::kExecutorFirstTask), 1'499'100'012'000);
}

TEST(RealWorld, MixedFormatsInOneBundle) {
  logging::LogBundle bundle;
  bundle.append("rm.log",
                "2017-07-03 16:40:00,123 INFO  org.apache.hadoop.yarn.server."
                "resourcemanager.rmapp.RMAppImpl: "
                "application_1499100000000_0001 State change from NEW_SAVING "
                "to SUBMITTED on event = APP_NEW_SAVED");
  bundle.append("executor.log",
                "17/07/03 16:40:09 INFO CoarseGrainedExecutorBackend: Got "
                "assigned task 0");
  const AnalysisResult result = SdChecker().analyze(bundle);
  EXPECT_EQ(result.lines_unparsed, 0u);
  EXPECT_EQ(result.events_total, 3u);  // SUBMITTED + FIRST_LOG + FIRST_TASK
}

// --- CRLF-terminated logs (files collected via Windows gateways) -------------

TEST(RealWorld, CrlfCorpusParsesCleanly) {
  const auto dir = std::filesystem::temp_directory_path() / "sdc_crlf_corpus";
  std::filesystem::create_directories(dir);
  {
    std::ofstream out(dir / "rm.log", std::ios::binary);
    out << "2017-07-03 16:40:00,123 INFO  org.apache.hadoop.yarn.server."
           "resourcemanager.rmapp.RMAppImpl: application_1499100000000_0001 "
           "State change from NEW_SAVING to SUBMITTED on event = "
           "APP_NEW_SAVED\r\n";
    out << "2017-07-03 16:40:00,456 INFO  org.apache.hadoop.yarn.server."
           "resourcemanager.rmapp.RMAppImpl: application_1499100000000_0001 "
           "State change from SUBMITTED to ACCEPTED on event = "
           "APP_ACCEPTED\r\n";
  }
  {
    std::ofstream out(dir / "executor.log", std::ios::binary);
    out << "17/07/03 16:40:09 INFO CoarseGrainedExecutorBackend: Connecting "
           "to driver for container container_1499100000000_0001_01_000002"
           "\r\n";
    out << "17/07/03 16:40:12 INFO CoarseGrainedExecutorBackend: Got "
           "assigned task 0\r\n";
  }

  // The bundle read keeps each line's '\r', as the directory reader does;
  // the miner strips it where it parses the line.
  const logging::LogBundle bundle = logging::LogBundle::read_from_directory(dir);
  ASSERT_EQ(bundle.lines("rm.log").size(), 2u);
  for (const std::string& line : bundle.lines("rm.log")) {
    EXPECT_TRUE(line.ends_with('\r')) << line;
  }
  const AnalysisResult via_bundle = SdChecker().analyze(bundle);
  EXPECT_EQ(via_bundle.lines_total, 4u);
  EXPECT_EQ(via_bundle.lines_unparsed, 0u);

  // Mining the directory strips it too (in `StreamCursor::feed`) and
  // mines identically.
  const AnalysisResult via_view = SdChecker().analyze_directory(dir);
  EXPECT_EQ(via_view.lines_unparsed, 0u);
  EXPECT_EQ(via_view.events_total, via_bundle.events_total);
  ASSERT_EQ(via_view.timelines.size(), 1u);
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace sdc::checker
