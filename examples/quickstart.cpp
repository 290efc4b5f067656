// Quickstart: simulate a small Spark-SQL-on-YARN run, write the log files
// to disk exactly as a real cluster would leave them, then point
// SDchecker at the directory and print the scheduling-delay decomposition.
//
//   ./quickstart [log_dir]
#include <cstdio>
#include <exception>
#include <filesystem>

#include "harness/scenario.hpp"
#include "sdchecker/sdchecker.hpp"
#include "workloads/tpch.hpp"

int main(int argc, char** argv) {
  using namespace sdc;
  const std::filesystem::path log_dir =
      argc > 1 ? argv[1] : std::filesystem::temp_directory_path() /
                               "sdchecker-quickstart-logs";

  // --- 1. Simulate: ten TPC-H queries on a 25-node cluster ----------------
  harness::ScenarioConfig scenario;
  scenario.seed = 42;
  for (int i = 0; i < 10; ++i) {
    harness::SparkSubmissionPlan plan;
    plan.at = seconds(2 + 6 * i);
    plan.app = workloads::make_tpch_query(/*query=*/1 + i % 22,
                                          /*input_mb=*/2048,
                                          /*num_executors=*/4);
    scenario.spark_jobs.push_back(std::move(plan));
  }
  std::printf("Simulating %zu Spark-SQL queries...\n",
              scenario.spark_jobs.size());
  harness::ScenarioResult result = harness::run_scenario(scenario);
  std::printf("  %zu jobs completed, %llu simulation events, %zu log lines\n",
              result.jobs.size(),
              static_cast<unsigned long long>(result.events_executed),
              result.logs.total_lines());

  checker::AnalysisResult analysis;
  try {
    // --- 2. Drop the logs on disk (what a real deployment gives you) ------
    result.logs.write_to_directory(log_dir);
    std::printf("  logs written to %s\n", log_dir.c_str());

    // --- 3. Mine with SDchecker -------------------------------------------
    checker::SdChecker sdchecker({.threads = 2});
    analysis = sdchecker.analyze_directory(log_dir);
  } catch (const std::exception& e) {
    // `log_dir` names a file, or cannot be written or listed.
    std::fprintf(stderr, "quickstart: %s\n", e.what());
    return 1;
  }
  std::printf("\nSDchecker: %zu lines mined, %zu events, %zu applications\n\n",
              analysis.lines_total, analysis.events_total,
              analysis.timelines.size());
  std::printf("%s\n", analysis.aggregate.render_text().c_str());

  // --- 4. Per-app view for the first application ---------------------------
  if (!analysis.delays.empty()) {
    const auto& [app, delays] = *analysis.delays.begin();
    std::printf("Decomposition for %s:\n", app.str().c_str());
    const auto show = [](const char* name,
                         const std::optional<std::int64_t>& v) {
      if (v) {
        std::printf("  %-12s %8.3fs\n", name,
                    static_cast<double>(*v) / 1000.0);
      }
    };
    show("total", delays.total);
    show("am", delays.am);
    show("driver", delays.driver);
    show("executor", delays.executor);
    show("in-app", delays.in_app);
    show("out-app", delays.out_app);
    show("alloc", delays.alloc);
  }
  if (!analysis.anomalies.empty()) {
    std::printf("\n%zu anomalies detected\n", analysis.anomalies.size());
  }
  return 0;
}
