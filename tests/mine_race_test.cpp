// Racing input: the directory changes after the listing that plans a
// corpus and before the chunk tasks read it.  Each test builds the
// `CorpusPipeline` (which lists and plans), changes the directory, then
// runs the chunks on a pool.  A chunk reads only the inode the listing
// saw, and only up to the size it saw, so:
//   * a file unlinked, or renamed away and recreated, is one
//     unreadable-file record and otherwise absent — a stream never mixes
//     the bytes of two inodes;
//   * a truncated file mines as it now is (a mapped read would fault);
//   * bytes appended after the listing are not read;
//   * a directory renamed away and replaced by one with the same names is
//     not read through: each listed file is one unreadable-file record.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <functional>
#include <string>
#include <vector>

#include "common/thread_pool.hpp"
#include "harness/scenario.hpp"
#include "sdchecker/export.hpp"
#include "sdchecker/sdchecker.hpp"
#include "workloads/tpch.hpp"

namespace sdc::checker {
namespace {

namespace fs = std::filesystem;

/// The lone file and the rotated-family member each test changes.
constexpr const char* kLone = "rm-neighbour.log";
constexpr const char* kMember = "rm.log.1";

/// Writes lines [begin, end), each with a newline unless `open_end`
/// leaves the last one unterminated.
void write_lines(const fs::path& path, const std::vector<std::string>& lines,
                 std::size_t begin, std::size_t end, bool open_end = false) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  for (std::size_t i = begin; i < end; ++i) {
    out << lines[i];
    if (i + 1 < end || !open_end) out << '\n';
  }
}

void append_bytes(const fs::path& path, std::string_view bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::app);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

/// A small simulated corpus with the RM log rotated into `rm.log.2`,
/// `rm.log.1` and `rm.log`, plus `kLone`, a copy of the RM log's first
/// lines under a name of its own whose last line has no newline yet.
fs::path write_corpus(const std::string& name) {
  harness::ScenarioConfig scenario;
  scenario.seed = 1501;
  for (int i = 0; i < 3; ++i) {
    harness::SparkSubmissionPlan plan;
    plan.at = seconds(1 + 7 * i);
    plan.app = workloads::make_tpch_query(1 + i, 1024, 2);
    scenario.spark_jobs.push_back(std::move(plan));
  }
  const harness::ScenarioResult run = harness::run_scenario(scenario);
  const fs::path dir = fs::temp_directory_path() / name;
  fs::remove_all(dir);
  fs::create_directories(dir);
  for (const std::string& stream : run.logs.stream_names()) {
    const std::vector<std::string>& lines = run.logs.lines(stream);
    if (stream != "rm.log") {
      write_lines(dir / stream, lines, 0, lines.size());
      continue;
    }
    const std::size_t third = lines.size() / 3;
    write_lines(dir / "rm.log.2", lines, 0, third);
    write_lines(dir / kMember, lines, third, 2 * third);
    write_lines(dir / "rm.log", lines, 2 * third, lines.size());
    write_lines(dir / kLone, lines, 0, third, /*open_end=*/true);
  }
  return dir;
}

/// Lists and plans `dir`, runs `change`, then mines, groups and
/// finalizes on four workers with byte ranges of a few lines each.
AnalysisResult analyze_after(const fs::path& dir,
                             const std::function<void()>& change) {
  CorpusPipeline pipeline(
      MinePlan(dir, MinerOptions{.threads = 4, .shard_grain = 512}));
  change();
  ThreadPool pool(4);
  parallel_for(pool, pipeline.chunk_count(),
               [&pipeline](std::size_t c) { pipeline.run_chunk(c); });
  return pipeline.finish(&pool);
}

/// An analysis of `dir` as it is now, plus one unreadable-file record
/// per name in `lost`, worded as the miner words them.
std::string analyze_with_lost(const fs::path& dir,
                              const std::vector<std::string>& lost) {
  AnalysisResult result = SdChecker().analyze_directory(dir);
  for (const std::string& name : lost) {
    result.diagnostics.push_back(logging::unreadable_file(name, dir / name));
  }
  result.diag_counts = logging::count_diagnostics(result.diagnostics);
  logging::sort_diagnostics(result.diagnostics);
  return analysis_json(result);
}

std::string rotation_record(const AnalysisResult& result) {
  for (const logging::Diagnostic& diagnostic : result.diagnostics) {
    if (diagnostic.kind == logging::DiagnosticKind::kRotationGap) {
      return diagnostic.detail;
    }
  }
  return "";
}

TEST(MineRace, UnlinkedFilesAreReportedAndLeftOut) {
  const fs::path dir = write_corpus("sdc_race_unlink");
  const AnalysisResult live = analyze_after(dir, [&dir] {
    fs::remove(dir / kLone);
    fs::remove(dir / kMember);
  });
  EXPECT_EQ(analysis_json(live), analyze_with_lost(dir, {kLone, kMember}));
  EXPECT_EQ(rotation_record(live),
            "reassembled 2 rotated segments: rm.log.2, rm.log");
  fs::remove_all(dir);
}

TEST(MineRace, RenamedAndRecreatedFilesAreNotMixedIn) {
  const fs::path dir = write_corpus("sdc_race_rename");
  const fs::path away = fs::temp_directory_path() / "sdc_race_rename_away";
  fs::remove_all(away);
  fs::create_directories(away);
  const std::string intruder =
      "2017-07-03 16:40:00,000 INFO  org.apache.hadoop.yarn.server."
      "resourcemanager.rmapp.RMAppImpl: application_1499100000000_0099 "
      "State change from NEW to NEW_SAVING on event = START\n";
  const AnalysisResult live = analyze_after(dir, [&] {
    for (const char* name : {kLone, kMember}) {
      fs::rename(dir / name, away / name);
      append_bytes(dir / name, intruder);
    }
  });
  for (const char* name : {kLone, kMember}) fs::remove(dir / name);
  EXPECT_EQ(analysis_json(live), analyze_with_lost(dir, {kLone, kMember}));
  fs::remove_all(away);
  fs::remove_all(dir);
}

TEST(MineRace, TruncatedFilesMineAsTheyNowAre) {
  const fs::path dir = write_corpus("sdc_race_truncate");
  const AnalysisResult live = analyze_after(dir, [&dir] {
    // Mid-line cuts, past several range seams.
    for (const char* name : {kLone, "rm.log"}) {
      fs::resize_file(dir / name, fs::file_size(dir / name) / 2 + 7);
    }
    fs::resize_file(dir / kMember, 0);
  });
  EXPECT_EQ(analysis_json(live), analyze_with_lost(dir, {}));
  fs::remove_all(dir);
}

TEST(MineRace, ReplacedDirectoryIsNotReadThrough) {
  const fs::path dir = write_corpus("sdc_race_redir");
  const fs::path away = fs::temp_directory_path() / "sdc_race_redir_away";
  fs::remove_all(away);
  std::vector<std::string> names;
  for (const fs::directory_entry& entry : fs::directory_iterator(dir)) {
    names.push_back(entry.path().filename().string());
  }
  const std::string intruder =
      "2017-07-03 16:40:00,000 INFO  org.apache.hadoop.yarn.server."
      "resourcemanager.rmapp.RMAppImpl: application_1499100000000_0099 "
      "State change from NEW to NEW_SAVING on event = START\n";
  const AnalysisResult live = analyze_after(dir, [&] {
    fs::rename(dir, away);
    fs::create_directories(dir);
    for (const std::string& name : names) append_bytes(dir / name, intruder);
  });
  EXPECT_EQ(live.lines_total, 0u);
  EXPECT_EQ(live.events_total, 0u);
  EXPECT_EQ(live.diag_counts.of(logging::DiagnosticKind::kUnreadableFile),
            names.size());
  // Nothing mined: an empty directory's analysis, plus one record per
  // listed file.
  fs::remove_all(dir);
  fs::create_directories(dir);
  EXPECT_EQ(analysis_json(live), analyze_with_lost(dir, names));
  fs::remove_all(away);
  fs::remove_all(dir);
}

TEST(MineRace, AppendedBytesAreNotRead) {
  const fs::path dir = write_corpus("sdc_race_append");
  const std::string before = analyze_with_lost(dir, {});
  const AnalysisResult live = analyze_after(dir, [&dir] {
    for (const char* name : {kLone, kMember, "rm.log"}) {
      append_bytes(dir / name, "appended after the listing\nand more");
    }
  });
  EXPECT_EQ(analysis_json(live), before);
  fs::remove_all(dir);
}

}  // namespace
}  // namespace sdc::checker
