// Tests for the follow-mode streaming service: live-directory tailing
// (appends split mid-line, streams appearing late, rotation handoff),
// bounded-memory eviction, and the parity contract — at quiescence the
// follow snapshot's analysis_json is byte-identical to batch analysis
// of the same directory.
#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <limits>
#include <string>
#include <vector>

#include "harness/scenario.hpp"
#include "logging/timestamp.hpp"
#include "sdchecker/export.hpp"
#include "sdchecker/extractor.hpp"
#include "sdchecker/follow.hpp"
#include "workloads/tpch.hpp"

namespace sdc::checker {
namespace {

namespace fs = std::filesystem;

harness::ScenarioResult small_run(int jobs = 4, std::uint64_t seed = 701,
                                  int executors = 2) {
  harness::ScenarioConfig scenario;
  scenario.seed = seed;
  for (int i = 0; i < jobs; ++i) {
    harness::SparkSubmissionPlan plan;
    plan.at = seconds(1 + 7 * i);
    plan.app = workloads::make_tpch_query(1 + i % workloads::kTpchQueryCount,
                                          1024, executors);
    scenario.spark_jobs.push_back(std::move(plan));
  }
  return harness::run_scenario(scenario);
}

/// Fresh (pre-cleaned) scratch directory for one test.
fs::path scratch_dir(const std::string& name) {
  const fs::path dir = fs::temp_directory_path() / name;
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir;
}

/// One stream's full on-disk byte content (every line '\n'-terminated).
std::string join_lines(const std::vector<std::string>& lines) {
  std::string text;
  for (const std::string& line : lines) {
    text += line;
    text += '\n';
  }
  return text;
}

void append_bytes(const fs::path& path, std::string_view bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::app);
  ASSERT_TRUE(out.is_open());
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

/// The byte range of `text` belonging to round `r` of `rounds` equal
/// slices — deliberately *not* aligned to line boundaries, so polls see
/// lines split mid-write.
std::string_view slice_of(const std::string& text, std::size_t r,
                          std::size_t rounds) {
  const std::size_t begin = text.size() * r / rounds;
  const std::size_t end = text.size() * (r + 1) / rounds;
  return std::string_view(text).substr(begin, end - begin);
}

AnalysisResult batch_analyze(const fs::path& dir) {
  return SdChecker().analyze_directory(dir);
}

// --- live append + late stream + quiescence parity ---------------------

/// `logs` with its first driver log damaged: the first line cut
/// mid-timestamp, then a 5-line and a 4-line unparsable run.
logging::LogBundle with_damaged_driver_log(const logging::LogBundle& logs) {
  logging::LogBundle out;
  bool damaged = false;
  for (const auto& name : logs.stream_names()) {
    const auto& lines = logs.lines(name);
    if (damaged || name.find("driver") == std::string::npos ||
        lines.size() < 8) {
      for (const auto& line : lines) out.append(name, line);
      continue;
    }
    damaged = true;
    for (std::size_t i = 0; i < lines.size(); ++i) {
      out.append(name, i == 0 ? lines[i].substr(3) : lines[i]);
      const std::size_t burst = i == 2 ? 5 : i == 5 ? 4 : 0;
      for (std::size_t b = 0; b < burst; ++b) {
        out.append(name, "\tat org.apache.spark.deploy.Client.run(" +
                             std::to_string(100 + b) + ")");
      }
    }
  }
  EXPECT_TRUE(damaged);
  return out;
}

/// `logs` with its first executor log ending in a two-line stack trace.
logging::LogBundle with_trailing_stack_trace(const logging::LogBundle& logs) {
  logging::LogBundle out;
  bool done = false;
  for (const auto& name : logs.stream_names()) {
    for (const auto& line : logs.lines(name)) out.append(name, line);
    if (!done && name.find("executor") != std::string::npos) {
      done = true;
      out.append(name, "java.lang.IllegalStateException: shuffle fetch failed");
      out.append(name, "\tat org.apache.spark.executor.Executor.run(42)");
    }
  }
  EXPECT_TRUE(done);
  return out;
}

/// Writes `logs` into `dir` while a FollowService tails it — stream 0
/// appears only from round 3, every stream's bytes arrive in 6 slices
/// cut mid-line — and requires the drained snapshot to equal batch
/// analysis of the directory byte for byte.  With `symlinked`, the last
/// stream's file lives outside `dir` and is reached through a symlink.
void expect_live_appends_match_batch(const logging::LogBundle& logs,
                                     const fs::path& dir,
                                     bool symlinked = false) {
  const auto names = logs.stream_names();
  ASSERT_GE(names.size(), 2u);
  std::vector<std::string> texts;
  for (const auto& name : names) texts.push_back(join_lines(logs.lines(name)));
  std::vector<fs::path> paths;
  for (const auto& name : names) paths.push_back(dir / name);
  if (symlinked) {
    const fs::path outside = scratch_dir(dir.filename().string() + "_target");
    paths.back() = outside / names.back();
  }

  FollowOptions options;
  options.retire = false;  // parity under eviction is its own test
  FollowService service(dir, options);
  EXPECT_EQ(service.poll_once().bytes_read, 0u);  // empty directory
  EXPECT_TRUE(service.quiescent());

  // Stream 0 appears only from round 3 — a new file mid-flight; every
  // stream's bytes arrive in 6 slices cut mid-line.
  constexpr std::size_t kRounds = 6;
  for (std::size_t r = 0; r < kRounds; ++r) {
    if (r == 0 && symlinked) {
      fs::create_symlink(paths.back(), dir / names.back());
    }
    for (std::size_t i = 0; i < names.size(); ++i) {
      if (i == 0 && r < 3) continue;
      const std::size_t from = i == 0 ? (r - 3) * 2 : r;
      const std::size_t upto = i == 0 ? from + 2 : r + 1;
      for (std::size_t s = from; s < upto; ++s) {
        append_bytes(paths[i], slice_of(texts[i], s, kRounds));
      }
    }
    const PollStats stats = service.poll_once();
    EXPECT_GT(stats.bytes_read, 0u);
    EXPECT_FALSE(service.quiescent());
  }
  // Writers stopped: the next poll drains nothing.
  EXPECT_EQ(service.poll_once().bytes_read, 0u);
  EXPECT_TRUE(service.quiescent());
  service.finish();

  const AnalysisResult batch = batch_analyze(dir);
  const AnalysisResult live = service.snapshot();
  EXPECT_EQ(analysis_json(live), analysis_json(batch));
  EXPECT_EQ(live.lines_total, batch.lines_total);
  EXPECT_EQ(live.events_total, batch.events_total);
  EXPECT_EQ(service.streams_seen(), names.size());
  EXPECT_EQ(service.analyzer().events_late_dropped(), 0u);
}

TEST(Follow, LiveAppendsMatchBatchByteIdentically) {
  const auto run = small_run();
  {
    SCOPED_TRACE("clean corpus");
    expect_live_appends_match_batch(run.logs, scratch_dir("sdc_follow_live"));
  }
  {
    SCOPED_TRACE("damaged driver log");
    const fs::path dir = scratch_dir("sdc_follow_live_damaged");
    expect_live_appends_match_batch(with_damaged_driver_log(run.logs), dir);
    // Batch's records: the head tear and one record per burst.
    const AnalysisResult batch = batch_analyze(dir);
    std::vector<std::size_t> bursts;
    bool head_tear = false;
    for (const auto& diagnostic : batch.diagnostics) {
      if (diagnostic.kind == logging::DiagnosticKind::kUnparsableBurst) {
        bursts.push_back(diagnostic.count);
      }
      head_tear = head_tear ||
                  diagnostic.detail.starts_with("stream begins mid-line");
    }
    EXPECT_TRUE(head_tear);
    EXPECT_EQ(bursts, (std::vector<std::size_t>{5, 4}));
  }
  {
    SCOPED_TRACE("trailing stack trace");
    const fs::path dir = scratch_dir("sdc_follow_live_stack");
    expect_live_appends_match_batch(with_trailing_stack_trace(run.logs), dir);
    bool tail_tear = false;
    for (const auto& diagnostic : batch_analyze(dir).diagnostics) {
      tail_tear = tail_tear ||
                  diagnostic.detail.starts_with("stream ends mid-line");
    }
    EXPECT_TRUE(tail_tear);
  }
  {
    SCOPED_TRACE("stream behind a symlink");
    const fs::path dir = scratch_dir("sdc_follow_live_symlink");
    expect_live_appends_match_batch(run.logs, dir, /*symlinked=*/true);
    EXPECT_TRUE(fs::is_symlink(dir / run.logs.stream_names().back()));
  }
}

// --- rotation handoff --------------------------------------------------

TEST(Follow, RotationHandoffMatchesBatchReassembly) {
  const auto run = small_run(3, 702);
  const fs::path dir = scratch_dir("sdc_follow_rotate");
  const auto names = run.logs.stream_names();
  ASSERT_GE(names.size(), 1u);

  FollowService service(dir, FollowOptions{.retire = false});

  // All streams but the first are written whole; the first is rotated
  // mid-life: half its bytes (cut mid-line), rename to `.1`, fresh base
  // file carries the rest.
  for (std::size_t i = 1; i < names.size(); ++i) {
    append_bytes(dir / names[i], join_lines(run.logs.lines(names[i])));
  }
  const std::string rotated = names[0];
  const std::string text = join_lines(run.logs.lines(rotated));
  append_bytes(dir / rotated, slice_of(text, 0, 2));
  service.poll_once();

  fs::rename(dir / rotated, dir / (rotated + ".1"));
  append_bytes(dir / rotated, slice_of(text, 1, 2));
  service.poll_once();
  EXPECT_EQ(service.rotations(), 1u);

  while (!service.quiescent()) service.poll_once();
  service.finish();

  const AnalysisResult batch = batch_analyze(dir);
  const AnalysisResult live = service.snapshot();
  EXPECT_EQ(analysis_json(live), analysis_json(batch));

  // Both sides report the reassembly the same way.
  bool found = false;
  for (const auto& diagnostic : live.diagnostics) {
    if (diagnostic.kind == logging::DiagnosticKind::kRotationGap &&
        diagnostic.stream == rotated) {
      found = true;
      EXPECT_EQ(diagnostic.detail, "reassembled 2 rotated segments: " +
                                       rotated + ".1, " + rotated);
    }
  }
  EXPECT_TRUE(found);
}

// --- bounded-memory eviction over a large corpus -----------------------

TEST(Follow, EvictionKeepsMemoryBoundedAndSnapshotExact) {
  const auto run = small_run(100, 703, 1);
  const fs::path dir = scratch_dir("sdc_follow_evict");
  const auto names = run.logs.stream_names();

  FollowOptions options;
  options.retire_quiet_polls = 4;
  FollowService service(dir, options);

  // Time-aligned ingestion, the way a real cluster is tailed: every
  // line carries the simulation clock in its timestamp, and each round
  // releases the next window of that clock across ALL streams at once.
  // Daemon logs (rm/nm) grow a few lines per round; an application's
  // own logs land whole the moment the app starts.  An app's events can
  // therefore never trail its FINISHED transition, and terminal apps
  // retire while later apps are still arriving.
  constexpr std::size_t kRounds = 25;
  std::vector<std::string> texts;
  std::vector<bool> per_app_done(names.size(), false);
  std::vector<int> app_index(names.size(), -1);
  std::size_t app_streams = 0;
  for (const auto& name : names) {
    texts.push_back(join_lines(run.logs.lines(name)));
  }
  // A stream is per-app when its file name carries the application (or
  // container) id — driver-application_*.log / executor-container_*.log.
  for (std::size_t i = 0; i < names.size(); ++i) {
    if (const auto app = find_application_id(names[i])) {
      app_index[i] = app->id;
      ++app_streams;
    } else if (const auto container = find_container_id(names[i])) {
      app_index[i] = container->app.id;
      ++app_streams;
    }
  }
  // Per-line clock, carried forward across untimestamped continuations.
  std::vector<std::vector<std::int64_t>> line_ts(names.size());
  std::int64_t t0 = std::numeric_limits<std::int64_t>::max();
  std::int64_t t1 = std::numeric_limits<std::int64_t>::min();
  for (std::size_t i = 0; i < names.size(); ++i) {
    std::int64_t carry = -1;
    for (const auto& line : run.logs.lines(names[i])) {
      if (const auto ts = logging::parse_epoch_ms(line)) carry = *ts;
      line_ts[i].push_back(carry);
    }
    for (std::size_t j = line_ts[i].size(); j-- > 1;) {
      if (line_ts[i][j - 1] < 0) line_ts[i][j - 1] = line_ts[i][j];
    }
    for (const std::int64_t ts : line_ts[i]) {
      ASSERT_GE(ts, 0) << names[i];
      t0 = std::min(t0, ts);
      t1 = std::max(t1, ts);
    }
  }
  const std::size_t total_apps = 100;
  std::size_t max_resident = 0;
  std::vector<std::size_t> next_line(names.size(), 0);
  for (std::size_t r = 0; r < kRounds; ++r) {
    const std::int64_t cutoff =
        t0 + (t1 - t0) * static_cast<std::int64_t>(r + 1) /
                 static_cast<std::int64_t>(kRounds);
    for (std::size_t i = 0; i < names.size(); ++i) {
      if (app_index[i] >= 0) {
        if (!per_app_done[i] && line_ts[i].front() <= cutoff) {
          append_bytes(dir / names[i], texts[i]);
          per_app_done[i] = true;
        }
        continue;
      }
      const auto& lines = run.logs.lines(names[i]);
      std::string chunk;
      while (next_line[i] < lines.size() &&
             line_ts[i][next_line[i]] <= cutoff) {
        chunk += lines[next_line[i]];
        chunk += '\n';
        ++next_line[i];
      }
      if (!chunk.empty()) append_bytes(dir / names[i], chunk);
    }
    service.poll_once();
    max_resident = std::max(max_resident, service.analyzer().apps_resident());
  }
  for (std::size_t i = 0; i < names.size(); ++i) {
    if (app_index[i] >= 0 && !per_app_done[i]) {
      append_bytes(dir / names[i], texts[i]);
    }
  }
  // Drain, then keep ticking until the retirement grace elapses for the
  // last terminal apps.
  PollStats drained;
  for (std::size_t i = 0; i < options.retire_quiet_polls + 3; ++i) {
    drained = service.poll_once();
  }
  EXPECT_TRUE(service.quiescent());
  // Fully read logs of retired apps are parked: the poll skips them.
  EXPECT_LT(drained.tails_checked, names.size());

  // A retired app's executor log gains a line that carries no event
  // after its tail was parked.  The sweep before quiescence reads it, so
  // the drained snapshot counts it as batch does.
  std::size_t late = names.size();
  for (std::size_t i = 0; i < names.size() && late == names.size(); ++i) {
    const auto container = find_container_id(names[i]);
    if (names[i].starts_with("executor") && container &&
        service.analyzer().retired().contains(container->app)) {
      late = i;
    }
  }
  ASSERT_LT(late, names.size());
  const std::string& last_line = run.logs.lines(names[late]).back();
  append_bytes(dir / names[late],
               last_line.substr(0, 23) +
                   " INFO  org.apache.spark.storage.BlockManager: "
                   "BlockManager stopped\n");
  const PollStats swept = service.poll_once();
  EXPECT_GT(swept.bytes_read, 0u);
  EXPECT_FALSE(service.quiescent());
  service.poll_once();
  EXPECT_TRUE(service.quiescent());
  service.finish();

  ASSERT_GT(app_streams, 0u);
  const AnalysisResult live = service.snapshot();
  ASSERT_GE(live.delays.size(), total_apps);
  // No event arrived for an already-retired application (the grace held),
  // so the snapshot must be exact.
  EXPECT_EQ(service.analyzer().events_late_dropped(), 0u);
  const AnalysisResult batch = batch_analyze(dir);
  EXPECT_EQ(live.lines_total, batch.lines_total);
  EXPECT_EQ(analysis_json(live), analysis_json(batch));
  // Memory stayed bounded: retirement freed timelines during ingestion,
  // and by the end nearly every app is a retired row, not a timeline.
  EXPECT_GE(service.analyzer().apps_retired(), total_apps / 2);
  EXPECT_LT(max_resident, total_apps);
  EXPECT_LT(service.analyzer().apps_resident(),
            total_apps - service.analyzer().apps_retired() + 10);
}

// --- mid-rotation races ------------------------------------------------

TEST(Follow, RenameWithoutSuccessorIsFollowedNotDiagnosed) {
  const fs::path dir = scratch_dir("sdc_follow_rename");
  const std::string line =
      "2017-07-03 16:40:00,123 INFO  org.apache.hadoop.yarn.server."
      "resourcemanager.rmapp.RMAppImpl: application_1499100000000_0001 "
      "State change from NEW_SAVING to SUBMITTED on event = APP_NEW_SAVED";
  FollowService service(dir, FollowOptions{.retire = false});
  append_bytes(dir / "rm.log", line + "\n");
  service.poll_once();
  // Renamed away with no fresh base yet — the inode is simply followed.
  fs::rename(dir / "rm.log", dir / "rm.log.1");
  append_bytes(dir / "rm.log.1", line + "\n");
  service.poll_once();
  service.finish();
  const AnalysisResult live = service.snapshot();
  EXPECT_EQ(live.lines_total, 2u);
  EXPECT_EQ(live.diag_counts.of(logging::DiagnosticKind::kUnreadableFile), 0u);
}

TEST(Follow, TruncationRestartsSegmentWithoutUnreadableSpam) {
  const fs::path dir = scratch_dir("sdc_follow_trunc");
  FollowService service(dir, FollowOptions{.retire = false});
  append_bytes(dir / "nm.log", "first generation line one\n");
  service.poll_once();
  // copytruncate-style rotation: same inode, size snaps to zero.
  { std::ofstream out(dir / "nm.log", std::ios::binary | std::ios::trunc); }
  append_bytes(dir / "nm.log", "second generation line one\n");
  service.poll_once();
  service.finish();
  const AnalysisResult live = service.snapshot();
  // Both generations were ingested, once each, with no unreadable noise.
  EXPECT_EQ(live.lines_total, 2u);
  EXPECT_EQ(live.diag_counts.of(logging::DiagnosticKind::kUnreadableFile), 0u);
}

fs::path golden_small_dir() {
  // Tests run from the build tree; the corpus lives in the source tree.
  for (fs::path dir = fs::current_path();
       !dir.empty() && dir != dir.root_path(); dir = dir.parent_path()) {
    const auto candidate = dir / "testdata" / "golden_small";
    if (fs::is_directory(candidate)) return candidate;
  }
  return fs::path("testdata") / "golden_small";
}

TEST(Follow, RenameAndRecreateBetweenScanAndReadMatchesBatch) {
  std::ifstream in(golden_small_dir() / "rm.log", std::ios::binary);
  const std::string text((std::istreambuf_iterator<char>(in)),
                         std::istreambuf_iterator<char>());
  ASSERT_FALSE(text.empty());
  const fs::path dir = scratch_dir("sdc_follow_rename_race");
  FollowService service(dir, FollowOptions{.retire = false});
  append_bytes(dir / "rm.log", slice_of(text, 0, 4));
  service.poll_once();

  // rm.log grows; after the next poll's directory walk and before its
  // reads, logrotate renames it to rm.log.1 and a fresh rm.log takes the
  // second half, larger than what was read so far.  The read must not
  // take the fresh file for the renamed one.
  append_bytes(dir / "rm.log", slice_of(text, 1, 4));
  bool rotated = false;
  service.set_test_seam({.after_scan = [&] {
    if (rotated) return;
    rotated = true;
    fs::rename(dir / "rm.log", dir / "rm.log.1");
    append_bytes(dir / "rm.log",
                 std::string_view(text).substr(text.size() / 2));
  }});
  service.poll_once();
  ASSERT_TRUE(rotated);
  // The race left rm.log.1's new bytes unread: not drained yet.
  EXPECT_FALSE(service.quiescent());
  do {
    service.poll_once();
  } while (!service.quiescent());
  service.finish();

  const AnalysisResult batch = batch_analyze(dir);
  const AnalysisResult live = service.snapshot();
  EXPECT_EQ(live.lines_total, batch.lines_total);
  EXPECT_EQ(analysis_json(live), analysis_json(batch));
  EXPECT_EQ(service.rotations(), 1u);
}

TEST(Follow, UnreadableFileDiagnosedOnceAndMatchesBatch) {
  const auto run = small_run(2, 704);
  const fs::path dir = scratch_dir("sdc_follow_unreadable");
  const auto names = run.logs.stream_names();
  for (const auto& name : names) {
    append_bytes(dir / name, join_lines(run.logs.lines(name)));
  }
  const fs::path secret = dir / "secret.log";
  append_bytes(secret, "not for you\n");

  // The open fails as a permission error would, for root as well (whom
  // chmod cannot stop).
  FollowService service(dir, FollowOptions{.retire = false});
  std::size_t refused = 0;
  service.set_test_seam({.fail_open = [&refused](std::string_view name) {
    const bool refuse = name == "secret.log";
    refused += refuse ? 1 : 0;
    return refuse;
  }});
  for (int i = 0; i < 3; ++i) service.poll_once();
  service.finish();
  EXPECT_EQ(refused, 3u);  // every poll retries the open

  const AnalysisResult live = service.snapshot();
  std::size_t unreadable = 0;
  for (const auto& diagnostic : live.diagnostics) {
    if (diagnostic.kind == logging::DiagnosticKind::kUnreadableFile) {
      ++unreadable;
      EXPECT_EQ(diagnostic.stream, "secret.log");
      EXPECT_EQ(diagnostic.count, 1u);
    }
  }
  EXPECT_EQ(unreadable, 1u);  // three polls, one record

  // The batch reader records an unreadable file and skips its stream:
  // batch over the directory without it, plus that record.
  fs::remove(secret);
  AnalysisResult batch = batch_analyze(dir);
  batch.diagnostics.push_back(
      logging::Diagnostic{logging::DiagnosticKind::kUnreadableFile,
                          "secret.log", 0, 1,
                          "LogView: cannot read " + secret.string()});
  batch.diag_counts = logging::count_diagnostics(batch.diagnostics);
  logging::sort_diagnostics(batch.diagnostics);
  EXPECT_EQ(analysis_json(live), analysis_json(batch));
}

// --- watch stream ------------------------------------------------------

TEST(Follow, WatchRecordIsOneValidSchemaCheckedLine) {
  const auto run = small_run(2, 705);
  const fs::path dir = scratch_dir("sdc_follow_watch");
  for (const auto& name : run.logs.stream_names()) {
    append_bytes(dir / name, join_lines(run.logs.lines(name)));
  }
  FollowService service(dir, FollowOptions{});
  service.poll_once();
  const std::string record = service.watch_record();
  EXPECT_EQ(record.find('\n'), std::string::npos);  // ndjson-safe
  const WatchCheckResult ok = check_watch_json(record);
  EXPECT_TRUE(ok.ok) << (ok.errors.empty() ? "" : ok.errors.front());

  EXPECT_FALSE(check_watch_json("{}").ok);
  EXPECT_FALSE(check_watch_json("not json").ok);
  EXPECT_FALSE(check_watch_json("[1,2,3]").ok);
}

}  // namespace
}  // namespace sdc::checker
