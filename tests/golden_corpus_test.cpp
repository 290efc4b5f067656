// Regression test against a frozen log corpus (testdata/golden_small).
//
// The corpus is committed text — it never changes when the simulator's
// cost models are recalibrated — so these exact-value assertions pin the
// *parser + grouping + decomposition* behaviour: any change to SDchecker
// that alters what it reads out of the same logs fails here.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>

#include "golden_dir.hpp"
#include "sdchecker/export.hpp"
#include "sdchecker/sdchecker.hpp"
#include "sdchecker/timeline.hpp"

namespace sdc::checker {
namespace {

class GoldenCorpus : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    result_ =
        new AnalysisResult(SdChecker().analyze_directory(golden_small_dir()));
  }
  // A set-up that threw left no result: fail each test instead of
  // dereferencing null.
  void SetUp() override {
    ASSERT_NE(result_, nullptr) << "cannot analyze " << golden_small_dir();
  }
  static void TearDownTestSuite() {
    delete result_;
    result_ = nullptr;
  }
  static const AnalysisResult& result() { return *result_; }

 private:
  static AnalysisResult* result_;
};
AnalysisResult* GoldenCorpus::result_ = nullptr;

TEST_F(GoldenCorpus, MiningCounts) {
  EXPECT_EQ(result().lines_total, 195u);
  EXPECT_EQ(result().lines_unparsed, 0u);
  EXPECT_EQ(result().events_total, 108u);
  EXPECT_EQ(result().events_unattributed, 0u);
  EXPECT_EQ(result().timelines.size(), 3u);
}

TEST_F(GoldenCorpus, ExactDecompositionApp1) {
  const ApplicationId app{1'499'100'000'000, 1};
  const Delays& delays = result().delays.at(app);
  EXPECT_EQ(delays.total, 10'931);
  EXPECT_EQ(delays.am, 4'208);
  EXPECT_EQ(delays.driver, 2'520);
  EXPECT_EQ(delays.executor, 4'549);
  EXPECT_EQ(delays.in_app, 7'069);
  EXPECT_EQ(delays.out_app, 3'862);
  EXPECT_EQ(delays.alloc, 1'152);
}

TEST_F(GoldenCorpus, ExactDecompositionApp2) {
  const ApplicationId app{1'499'100'000'000, 2};
  const Delays& delays = result().delays.at(app);
  EXPECT_EQ(delays.total, 12'154);
  EXPECT_EQ(delays.driver, 3'077);
  EXPECT_EQ(delays.executor, 5'721);
  EXPECT_EQ(delays.alloc, 649);
}

TEST_F(GoldenCorpus, ExactDecompositionApp3) {
  const ApplicationId app{1'499'100'000'000, 3};
  const Delays& delays = result().delays.at(app);
  EXPECT_EQ(delays.total, 11'097);
  EXPECT_EQ(delays.am, 4'463);
  EXPECT_EQ(delays.in_app, 7'470);
}

TEST_F(GoldenCorpus, PerContainerStructure) {
  for (const auto& [app, delays] : result().delays) {
    ASSERT_EQ(delays.containers.size(), 3u) << app.str();  // AM + 2 workers
    EXPECT_EQ(delays.worker_localizations().size(), 2u);
    EXPECT_EQ(delays.worker_launchings().size(), 2u);
    EXPECT_EQ(delays.worker_idles().size(), 2u);
    for (const ContainerDelays& container : delays.containers) {
      if (container.is_am) {
        EXPECT_FALSE(container.executor_idle.has_value());
      } else {
        ASSERT_TRUE(container.executor_idle.has_value());
        EXPECT_GT(*container.executor_idle, 0);
      }
    }
    // The earliest-booting executor idles at least the app-level executor
    // delay (its FIRST_LOG is the app's, its first task is >= the app's).
    const auto idles = delays.worker_idles();
    EXPECT_GE(*std::max_element(idles.begin(), idles.end()),
              *delays.executor);
  }
}

TEST_F(GoldenCorpus, NoAnomaliesAndGraphsClean) {
  EXPECT_TRUE(result().anomalies.empty());
  for (const auto& [app, timeline] : result().timelines) {
    EXPECT_TRUE(result().graph_for(app).validate().empty()) << app.str();
  }
}

// The whole analysis document, byte for byte: `sdchecker analyze
// testdata/golden_small --json` as committed beside the corpus (outside
// it, so it is not read as a log).  Nulls and both `is_am` values are in
// it.
TEST_F(GoldenCorpus, AnalysisJsonMatchesCommittedDocument) {
  const std::filesystem::path path =
      golden_small_dir().parent_path() / "golden_small.analysis.json";
  std::ifstream in(path, std::ios::binary);
  ASSERT_TRUE(in.is_open()) << path;
  const std::string committed{std::istreambuf_iterator<char>(in),
                              std::istreambuf_iterator<char>()};
  EXPECT_EQ(analysis_json(result()), committed);
}

TEST_F(GoldenCorpus, TimelineRenderStable) {
  const ApplicationId app{1'499'100'000'000, 1};
  const std::string text = render_timeline(result().timelines.at(app));
  EXPECT_EQ(text.find("application_1499100000000_0001\n"), 0u);
  EXPECT_NE(text.find("+0.000s"), std::string::npos);
  EXPECT_NE(text.find("SUBMITTED (1)"), std::string::npos);
  EXPECT_NE(text.find("FIRST_TASK (14)"), std::string::npos);
  // Timeline ends at the app-finished bookkeeping event.
  EXPECT_NE(text.find("APP_FINISHED"), std::string::npos);
}

}  // namespace
}  // namespace sdc::checker
