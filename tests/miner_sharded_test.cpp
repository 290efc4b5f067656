// Sharded-mining equivalence and the zero-copy view layer.
//
// The contract of intra-stream sharding is that it is *invisible*: the
// sharded miner must produce the same events, ids, diagnostics and
// ordering as a serial pass, on any corpus.  These tests force many tiny
// chunks (shard_grain far below stream length) to exercise every stitch
// rule: FIRST_LOG synthesis across a chunk boundary, kind classification
// landing in a late chunk, and id binding discovered after events were
// already extracted in earlier chunks.
#include <gtest/gtest.h>

#include <atomic>
#include <filesystem>
#include <fstream>

#include "common/thread_pool.hpp"
#include "logging/log_view.hpp"
#include "logging/timestamp.hpp"
#include "sdchecker/miner.hpp"
#include "sdchecker/sdchecker.hpp"
#include "sdchecker/stream_cursor.hpp"

namespace sdc::checker {
namespace {

constexpr std::int64_t kEpoch = 1'499'100'000'000;

std::string line(std::int64_t offset_ms, const std::string& cls,
                 const std::string& message) {
  return logging::format_epoch_ms(kEpoch + offset_ms) + " INFO  " + cls + ": " +
         message;
}

std::filesystem::path corpus_dir() {
  for (std::filesystem::path dir = std::filesystem::current_path();
       !dir.empty() && dir != dir.root_path(); dir = dir.parent_path()) {
    const auto candidate = dir / "testdata" / "golden_small";
    if (std::filesystem::is_directory(candidate)) return candidate;
  }
  return std::filesystem::path("testdata") / "golden_small";
}

void expect_same_events(const MineResult& a, const MineResult& b) {
  ASSERT_EQ(a.events.size(), b.events.size());
  for (std::size_t i = 0; i < a.events.size(); ++i) {
    const auto x = a.events[i];
    const auto y = b.events[i];
    EXPECT_EQ(x.kind, y.kind) << "event " << i;
    EXPECT_EQ(x.ts_ms, y.ts_ms) << "event " << i;
    EXPECT_EQ(x.stream, y.stream) << "event " << i;
    EXPECT_EQ(x.line_no, y.line_no) << "event " << i;
    EXPECT_EQ(x.app.has_value(), y.app.has_value()) << "event " << i;
    if (x.app && y.app) {
      EXPECT_EQ(*x.app, *y.app) << "event " << i;
    }
    EXPECT_EQ(x.container.has_value(), y.container.has_value()) << "event " << i;
    if (x.container && y.container) {
      EXPECT_EQ(*x.container, *y.container) << "event " << i;
    }
  }
  EXPECT_EQ(a.lines_total, b.lines_total);
  EXPECT_EQ(a.lines_unparsed, b.lines_unparsed);
  ASSERT_EQ(a.streams.size(), b.streams.size());
  for (std::size_t s = 0; s < a.streams.size(); ++s) {
    EXPECT_EQ(a.streams[s].name, b.streams[s].name);
    EXPECT_EQ(a.streams[s].kind, b.streams[s].kind);
    EXPECT_EQ(a.streams[s].lines_unparsed, b.streams[s].lines_unparsed);
    EXPECT_EQ(a.streams[s].bound_app, b.streams[s].bound_app);
    EXPECT_EQ(a.streams[s].bound_container, b.streams[s].bound_container);
    // Diagnostics are part of the sharding-invisibility contract: the
    // stitch pass must fold per-chunk provisional state into the exact
    // records a serial pass emits.
    ASSERT_EQ(a.streams[s].diagnostics.size(), b.streams[s].diagnostics.size())
        << a.streams[s].name;
    for (std::size_t d = 0; d < a.streams[s].diagnostics.size(); ++d) {
      const logging::Diagnostic& x = a.streams[s].diagnostics[d];
      const logging::Diagnostic& y = b.streams[s].diagnostics[d];
      EXPECT_EQ(x.kind, y.kind) << a.streams[s].name << " diag " << d;
      EXPECT_EQ(x.line_no, y.line_no) << a.streams[s].name << " diag " << d;
      EXPECT_EQ(x.count, y.count) << a.streams[s].name << " diag " << d;
      EXPECT_EQ(x.detail, y.detail) << a.streams[s].name << " diag " << d;
    }
  }
  ASSERT_EQ(a.diagnostics.size(), b.diagnostics.size());
  for (std::size_t i = 0; i < logging::kDiagnosticKindCount; ++i) {
    EXPECT_EQ(a.diag_counts.by_kind[i], b.diag_counts.by_kind[i]);
  }
}

TEST(ShardedMiner, DamagedCorpusDiagnosticsIdenticalToSerial) {
  // A stream with garbage, a truncated tail, a long unparsable burst and
  // a clock step, mined with chunk grain 1 — every diagnostic summary
  // crosses chunk boundaries and must still match the serial pass.
  logging::LogBundle bundle;
  const std::string cls = "com.example.Daemon";
  for (int i = 0; i < 6; ++i) {
    bundle.append("sick.log", line(i * 100, cls, "ok " + std::to_string(i)));
  }
  bundle.append("sick.log", std::string("\x01\x00\x02 binary", 10));
  for (int i = 0; i < 5; ++i) {
    bundle.append("sick.log", "plain unparsable filler " + std::to_string(i));
  }
  bundle.append("sick.log", line(5000, cls, "resumes"));
  bundle.append("sick.log", line(100, cls, "clock stepped back"));
  bundle.append("sick.log", logging::format_epoch_ms(kEpoch + 200) + " INF");
  const MineResult serial = LogMiner(MinerOptions{1}).mine(bundle);
  const MineResult sharded = LogMiner(MinerOptions{4, 1}).mine(bundle);
  expect_same_events(serial, sharded);
  using logging::DiagnosticKind;
  EXPECT_EQ(serial.diag_counts.of(DiagnosticKind::kBinaryGarbage), 1u);
  EXPECT_GE(serial.diag_counts.of(DiagnosticKind::kUnparsableBurst), 1u);
  EXPECT_EQ(serial.diag_counts.of(DiagnosticKind::kTimestampRegression), 1u);
  EXPECT_EQ(serial.diag_counts.of(DiagnosticKind::kTruncatedLine), 1u);
}

/// Everything a cursor reports: its rendered records plus the
/// first-seen state the stitch pass reads.
std::string cursor_state(const StreamCursor& cursor) {
  std::vector<logging::Diagnostic> records;
  cursor.render("s.log", records);
  std::string out = std::to_string(cursor.line_no());
  out += '/';
  out += std::to_string(cursor.lines_unparsed());
  out += '/';
  out += stream_kind_name(cursor.kind());
  out += '/';
  out += std::to_string(cursor.first_parsed_ts().value_or(-1));
  out += '/';
  out += cursor.bound_app() ? cursor.bound_app()->str() : "-";
  for (const auto& record : records) {
    out += '\n';
    out += logging::render_diagnostic(record);
  }
  return out;
}

/// Joins cursors over lines [0, i), [i, j) and [j, n) for every pair of
/// seams and expects each join to equal one cursor fed every line;
/// returns that cursor's state.
std::string expect_any_seams_equal_one_cursor(
    const std::vector<std::string>& lines) {
  StreamCursor whole;
  for (const auto& text : lines) whole.feed(text);
  const std::string expected = cursor_state(whole);
  const auto cursor_over = [&lines](std::size_t begin, std::size_t end) {
    StreamCursor cursor(begin);
    for (std::size_t i = begin; i < end; ++i) cursor.feed(lines[i]);
    return cursor;
  };
  const std::size_t n = lines.size();
  for (std::size_t i = 0; i <= n; ++i) {
    for (std::size_t j = i; j <= n; ++j) {
      StreamCursor joined = cursor_over(0, i);
      joined.join(cursor_over(i, j));
      joined.join(cursor_over(j, n));
      EXPECT_EQ(cursor_state(joined), expected) << "seams " << i << ", " << j;
    }
  }
  return expected;
}

TEST(ShardedMiner, CursorJoinedAtAnySeamsEqualsOneCursor) {
  const std::string cls = "org.apache.spark.deploy.yarn.ApplicationMaster";
  const std::string plain = "\tat org.example.Frame.run(Frame.java:1)";
  const std::string garbage("\x01\x02\0junk\x03", 8);
  const std::string cut = logging::format_epoch_ms(kEpoch) + " INF";
  const std::string damaged = expect_any_seams_equal_one_cursor({
      "ate change from A to B",  // head tear
      line(0, cls, "Registering application_1499100000000_0042"),
      plain, plain,  // short run: dropped once closed
      line(10, cls, "step"),
      plain, garbage, plain, cut, plain,  // 5-line burst
      line(5000, cls, "later"),
      line(100, cls, "clock stepped back"),
      garbage,
      line(6000, cls, "after garbage"),
      plain, plain, plain, plain,  // 4-line burst
      line(7000, cls, "more"),
      plain, plain,  // tail tear
  });
  EXPECT_NE(damaged.find("stream begins mid-line"), std::string::npos);
  EXPECT_NE(damaged.find("5 consecutive"), std::string::npos);
  EXPECT_NE(damaged.find("stream ends mid-line"), std::string::npos);

  // The first line that carries an id binds the stream, so a container
  // of application 2 ahead of application 1's id binds to application 2
  // — the rule follow mode applies as lines arrive.
  const std::string container_first = expect_any_seams_equal_one_cursor({
      line(0, cls, "Registered signal handlers"),
      line(10, cls, "Launching container_1499100000000_0002_01_000002"),
      line(20, cls, "Submitted application_1499100000000_0001"),
      line(30, cls, "Registering the ApplicationMaster"),
  });
  EXPECT_NE(container_first.find("/application_1499100000000_0002"),
            std::string::npos)
      << container_first;
}

TEST(ShardedMiner, GoldenCorpusIdenticalToSerial) {
  const auto dir = corpus_dir();
  const MineResult serial = LogMiner(MinerOptions{1}).mine_directory(dir);
  // grain=2 forces dozens of chunks per stream.
  const MineResult sharded =
      LogMiner(MinerOptions{4, 2}).mine_directory(dir);
  expect_same_events(serial, sharded);
  EXPECT_GT(serial.events.size(), 0u);
}

TEST(ShardedMiner, StitchResolvesLateBindingAcrossChunks) {
  // Classification and binding land in different (late) chunks: line 1
  // is garbage, line 2 classifies the stream, the container id only
  // appears on line 5 — after FIRST_LOG and FIRST_TASK were extracted.
  logging::LogBundle bundle;
  const std::string backend =
      "org.apache.spark.executor.CoarseGrainedExecutorBackend";
  bundle.append("exec.log", "garbage first line");
  bundle.append("exec.log", line(500, backend, "Started daemon"));
  bundle.append("exec.log", line(600, backend, "Got assigned task 0"));
  bundle.append("exec.log", line(700, backend, "heartbeat"));
  bundle.append("exec.log",
                line(800, backend,
                     "Connecting to driver for container "
                     "container_1499100000000_0001_01_000002"));
  const MineResult serial = LogMiner(MinerOptions{1}).mine(bundle);
  const MineResult sharded = LogMiner(MinerOptions{4, 1}).mine(bundle);
  expect_same_events(serial, sharded);
  // FIRST_LOG synthesized from the first *parsed* line, bound to the
  // container discovered three chunks later.
  ASSERT_EQ(sharded.streams.size(), 1u);
  ASSERT_TRUE(sharded.streams[0].bound_container.has_value());
  bool saw_first_log = false;
  for (const auto event : sharded.events) {
    if (event.kind == EventKind::kExecutorFirstLog) {
      saw_first_log = true;
      EXPECT_EQ(event.ts_ms, kEpoch + 500);
      ASSERT_TRUE(event.container.has_value());
      EXPECT_EQ(event.container->id, 2);
    }
  }
  EXPECT_TRUE(saw_first_log);
}

TEST(ShardedMiner, OutOfOrderTimestampsMergeIdentically) {
  // Within-stream timestamps are not monotonic (clock steps, buffered
  // writes); per-chunk sorted runs + k-way merge must equal the serial
  // global sort.
  logging::LogBundle bundle;
  const std::string rm_app =
      "org.apache.hadoop.yarn.server.resourcemanager.rmapp.RMAppImpl";
  for (int i = 0; i < 50; ++i) {
    const std::int64_t offset = (i * 37) % 200;  // scrambled timestamps
    bundle.append("rm.log",
                  line(offset, rm_app,
                       "application_1499100000000_000" +
                           std::to_string(1 + i % 3) +
                           " State change from NEW_SAVING to SUBMITTED on "
                           "event = APP_NEW_SAVED"));
  }
  const MineResult serial = LogMiner(MinerOptions{1}).mine(bundle);
  const MineResult sharded = LogMiner(MinerOptions{3, 4}).mine(bundle);
  expect_same_events(serial, sharded);
  for (std::size_t i = 1; i < sharded.events.size(); ++i) {
    EXPECT_FALSE(
        EventBatch::row_less(sharded.events, i, sharded.events, i - 1));
  }
}

TEST(ShardedMiner, AnalysisIdenticalThroughSdChecker) {
  const auto dir = corpus_dir();
  const AnalysisResult serial = SdChecker({.threads = 1}).analyze_directory(dir);
  const AnalysisResult sharded =
      SdChecker({.threads = 4, .shard_grain = 2}).analyze_directory(dir);
  EXPECT_EQ(serial.lines_total, sharded.lines_total);
  EXPECT_EQ(serial.events_total, sharded.events_total);
  ASSERT_EQ(serial.delays.size(), sharded.delays.size());
  for (const auto& [app, delays] : serial.delays) {
    const Delays& other = sharded.delays.at(app);
    EXPECT_EQ(delays.total, other.total) << app.str();
    EXPECT_EQ(delays.am, other.am) << app.str();
    EXPECT_EQ(delays.driver, other.driver) << app.str();
    EXPECT_EQ(delays.executor, other.executor) << app.str();
  }
}

// --- view layer --------------------------------------------------------------

TEST(LogView, FromBufferSplitsLikeGetline) {
  const logging::LogView view =
      logging::LogView::from_buffer("a\nbb\n\nccc\r\nfinal");
  ASSERT_EQ(view.line_count(), 5u);
  EXPECT_EQ(view.lines()[0], "a");
  EXPECT_EQ(view.lines()[1], "bb");
  EXPECT_EQ(view.lines()[2], "");
  EXPECT_EQ(view.lines()[3], "ccc");  // '\r' stripped
  EXPECT_EQ(view.lines()[4], "final");  // unterminated tail still counts
  EXPECT_EQ(view.size_bytes(), 16u);
}

TEST(LogView, EmptyBuffer) {
  EXPECT_EQ(logging::LogView::from_buffer("").line_count(), 0u);
  EXPECT_EQ(logging::LogView{}.line_count(), 0u);
}

TEST(LogView, FromFileMatchesBundleRead) {
  const auto dir =
      std::filesystem::temp_directory_path() / "sdc_log_view_test";
  std::filesystem::create_directories(dir);
  {
    std::ofstream out(dir / "a.log", std::ios::binary);
    out << "line one\nline two\r\nline three";
  }
  {
    std::ofstream out(dir / "empty.log", std::ios::binary);
  }
  const logging::BundleView view =
      logging::BundleView::read_from_directory(dir);
  const logging::LogBundle bundle =
      logging::LogBundle::read_from_directory(dir);
  EXPECT_EQ(view.stream_count(), 2u);
  ASSERT_TRUE(view.has_stream("a.log"));
  const auto& lines = view.stream("a.log").lines();
  const auto& bundle_lines = bundle.lines("a.log");
  ASSERT_EQ(lines.size(), bundle_lines.size());
  for (std::size_t i = 0; i < lines.size(); ++i) {
    EXPECT_EQ(lines[i], bundle_lines[i]);
  }
  EXPECT_EQ(view.stream("empty.log").line_count(), 0u);
  EXPECT_EQ(view.stream("missing.log").line_count(), 0u);
  std::filesystem::remove_all(dir);
}

TEST(BundleView, FromBundleIsZeroCopy) {
  logging::LogBundle bundle;
  bundle.append("s.log", "hello world");
  const logging::BundleView view = logging::BundleView::from_bundle(bundle);
  ASSERT_EQ(view.stream("s.log").line_count(), 1u);
  // The view aliases the bundle's own bytes — no copy was made.
  EXPECT_EQ(view.stream("s.log").lines()[0].data(),
            bundle.lines("s.log")[0].data());
  EXPECT_EQ(view.total_lines(), 1u);
}

TEST(BundleView, MmapDirectoryMinesIdenticallyToBundle) {
  const auto dir = corpus_dir();
  const MineResult via_bundle =
      LogMiner(MinerOptions{1}).mine(logging::LogBundle::read_from_directory(dir));
  const MineResult via_view = LogMiner(MinerOptions{1}).mine_directory(dir);
  expect_same_events(via_bundle, via_view);
}

// --- parallel_for_chunked ----------------------------------------------------

TEST(ParallelForChunked, CoversEveryIndexExactlyOnce) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(1000);
  parallel_for_chunked(pool, hits.size(), 7,
                       [&](std::size_t begin, std::size_t end) {
                         ASSERT_LE(begin, end);
                         for (std::size_t i = begin; i < end; ++i) ++hits[i];
                       });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ParallelForChunked, SurvivesRapidPoolChurn) {
  // Regression: parallel_for used to notify its completion condvar after
  // releasing the lock, so a straggler worker could signal a destroyed
  // stack-local condvar once the caller had already returned — corrupting
  // reused stack memory and hanging a later wait.  Rapid create/run/
  // destroy cycles on few cores made this reproducible.
  for (int round = 0; round < 300; ++round) {
    ThreadPool pool(2);
    std::atomic<int> sum{0};
    parallel_for(pool, 8, [&](std::size_t i) {
      sum += static_cast<int>(i);
    });
    ASSERT_EQ(sum.load(), 28);
  }
}

TEST(ParallelForChunked, ZeroGrainAutoSizesAndZeroNIsNoop) {
  ThreadPool pool(2);
  std::atomic<std::size_t> covered{0};
  parallel_for_chunked(pool, 100, 0, [&](std::size_t begin, std::size_t end) {
    covered += end - begin;
  });
  EXPECT_EQ(covered.load(), 100u);
  bool called = false;
  parallel_for_chunked(pool, 0, 8,
                       [&](std::size_t, std::size_t) { called = true; });
  EXPECT_FALSE(called);
}

}  // namespace
}  // namespace sdc::checker
