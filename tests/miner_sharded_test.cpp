// Sharded-mining equivalence and the byte-range reader.
//
// The contract of intra-stream sharding is that it is *invisible*: the
// sharded miner must produce the same events, ids, diagnostics and
// per-stream row order as a serial pass, on any corpus.  These tests
// force many tiny chunks (shard_grain far below stream length) to
// exercise every stitch rule: FIRST_LOG synthesis across a chunk
// boundary, kind classification landing in a late chunk, and id binding
// discovered after events were already extracted in earlier chunks.
// The reader's own contract is that ranges tiling a file hand out its
// lines exactly once, whatever the seams: every split offset of a set of
// edge files is tried.
#include <gtest/gtest.h>

#include <fcntl.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>

#include "common/thread_pool.hpp"
#include "golden_dir.hpp"
#include "logging/line_reader.hpp"
#include "logging/timestamp.hpp"
#include "mine_helpers.hpp"
#include "obs/metric_catalog.hpp"
#include "sdchecker/corpus_mutator.hpp"
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
  const MinedCorpus serial = mine(bundle, MinerOptions{1});
  const MinedCorpus sharded = mine(bundle, MinerOptions{4, 1});
  expect_same_mine(serial, sharded);
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

/// Joins cursors over lines [0, i), [i, j) and [j, n) — each numbered
/// from its own first line, as a chunk's is — for every pair of seams
/// and expects each join to equal one cursor fed every line; returns
/// that cursor's state.
std::string expect_any_seams_equal_one_cursor(
    const std::vector<std::string>& lines) {
  StreamCursor whole;
  for (const auto& text : lines) whole.feed(text);
  const std::string expected = cursor_state(whole);
  const auto cursor_over = [&lines](std::size_t begin, std::size_t end) {
    StreamCursor cursor;
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
  const auto dir = golden_small_dir();
  const MinedCorpus serial = mine_directory(dir, MinerOptions{1});
  // grain=2 forces dozens of chunks per stream.
  const MinedCorpus sharded = mine_directory(dir, MinerOptions{4, 2});
  expect_same_mine(serial, sharded);
  EXPECT_GT(serial.events, 0u);
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
  const MinedCorpus serial = mine(bundle, MinerOptions{1});
  const MinedCorpus sharded = mine(bundle, MinerOptions{4, 1});
  expect_same_mine(serial, sharded);
  // FIRST_LOG synthesized from the first *parsed* line, bound to the
  // container discovered three chunks later.
  ASSERT_EQ(sharded.streams.size(), 1u);
  ASSERT_TRUE(sharded.streams[0].bound_container.has_value());
  bool saw_first_log = false;
  for (const auto event : sharded.streams[0].events) {
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
  // writes); the stitched stream keeps its rows in file order at any
  // grain, with no sort.
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
  const MinedCorpus serial = mine(bundle, MinerOptions{1});
  const MinedCorpus sharded = mine(bundle, MinerOptions{3, 4});
  expect_same_mine(serial, sharded);
  // Row i is line i's event, scrambled timestamp and all.
  ASSERT_EQ(sharded.streams.size(), 1u);
  const EventBatch& events = sharded.streams[0].events;
  ASSERT_EQ(events.size(), 50u);
  for (std::size_t i = 0; i < events.size(); ++i) {
    EXPECT_EQ(events.ts_at(i),
              kEpoch + static_cast<std::int64_t>((i * 37) % 200))
        << "event " << i;
  }
}

TEST(ShardedMiner, AnalysisIdenticalThroughSdChecker) {
  const auto dir = golden_small_dir();
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

// --- byte-range reader -------------------------------------------------------

namespace fs = std::filesystem;

/// A new, empty scratch directory of this call's own (`mkdtemp`), so
/// tests that run concurrently never share one.
fs::path scratch_dir(const std::string& prefix) {
  std::string pattern =
      (fs::temp_directory_path() / (prefix + ".XXXXXX")).string();
  if (::mkdtemp(pattern.data()) == nullptr) {
    ADD_FAILURE() << "mkdtemp " << pattern << ": " << std::strerror(errno);
  }
  return pattern;
}

void write_bytes(const fs::path& path, std::string_view bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

/// What `read_line_range` hands out for one range of a file.
struct RangeRead {
  std::vector<std::string> lines;
  std::uint64_t consumed = 0;
};

RangeRead read_range(const fs::path& path, std::uint64_t begin,
                     std::uint64_t end, std::size_t block_size) {
  RangeRead out;
  std::vector<char> block(block_size);
  const int fd = ::open(path.c_str(), O_RDONLY);
  EXPECT_GE(fd, 0) << path;
  const auto consumed = logging::read_line_range(
      fd, begin, end, fs::file_size(path), block,
      [&out](std::string_view line) { out.lines.emplace_back(line); });
  ::close(fd);
  EXPECT_TRUE(consumed.has_value());
  out.consumed = consumed.value_or(0);
  return out;
}

/// A cursor fed `lines`.
StreamCursor cursor_of(const std::vector<std::string>& lines) {
  StreamCursor cursor;
  for (const std::string& text : lines) cursor.feed(text);
  return cursor;
}

/// The seam property on one file's bytes: for every split offset k (or
/// each of `seams`, when given), ranges [0, k) and [k, n) hand out the
/// lines of one range [0, n), each once, and consume every byte; their
/// cursors joined equal one cursor over [0, n); and both equal
/// `LogBundle::read_from_directory`'s lines.  `block_size` below the line
/// lengths makes every line span reads.
void expect_any_seam_reads_like_bundle(
    const std::string& name, std::string_view bytes, std::size_t block_size,
    std::vector<std::uint64_t> seams = {}) {
  const fs::path dir = scratch_dir("sdc_range_seams");
  const fs::path path = dir / name;
  write_bytes(path, bytes);
  const std::uint64_t n = bytes.size();
  const RangeRead whole = read_range(path, 0, n, block_size);
  EXPECT_EQ(whole.consumed, n) << name;

  const logging::LogBundle bundle = logging::LogBundle::read_from_directory(dir);
  const std::vector<std::string>& expected = bundle.lines(name);
  EXPECT_EQ(whole.lines, expected) << name;
  const std::string one_cursor = cursor_state(cursor_of(whole.lines));

  if (seams.empty()) {
    for (std::uint64_t k = 0; k <= n; ++k) seams.push_back(k);
  }
  for (const std::uint64_t k : seams) {
    const RangeRead head = read_range(path, 0, k, block_size);
    const RangeRead tail = read_range(path, k, n, block_size);
    EXPECT_EQ(head.consumed + tail.consumed, n) << name << " seam " << k;
    std::vector<std::string> joined = head.lines;
    joined.insert(joined.end(), tail.lines.begin(), tail.lines.end());
    EXPECT_EQ(joined, whole.lines) << name << " seam " << k;
    StreamCursor cursor = cursor_of(head.lines);
    cursor.join(cursor_of(tail.lines));
    EXPECT_EQ(cursor_state(cursor), one_cursor) << name << " seam " << k;
  }
  fs::remove_all(dir);
}

TEST(RangeReader, AnySeamReadsEdgeFilesLikeBundle) {
  const std::string cls = "org.apache.spark.deploy.yarn.ApplicationMaster";
  const std::string logged =
      line(0, cls, "Registering application_1499100000000_0042") + "\r\n" +
      "\tat org.example.Frame.run(Frame.java:1)\n" + line(10, cls, "step") +
      "\r\n" + std::string("\x01\x02\0junk\x03\n", 9) +
      line(5000, cls, "later") + "\n" + line(100, cls, "clock stepped back");
  const std::pair<const char*, std::string> rows[] = {
      {"getline.log", "a\nbb\n\nccc\r\nfinal"},
      {"crlf-tail.log", "line one\nline two\r\nline three"},
      {"empty.log", ""},
      {"newline-only.log", "\n"},
      {"empty-lines.log", "\n\n\nx\n\n"},
      {"crlf.log", "x\r\ny\r\n\r\nzz\r\n"},
      {"nul.log", std::string("ab\0c\n\0\n\0\0x\0", 12)},
      {"terminated.log", "one\ntwo\n"},
      {"logged.log", logged},
  };
  for (const auto& [name, bytes] : rows) {
    for (const std::size_t block_size : {1u, 3u, 64u}) {
      expect_any_seam_reads_like_bundle(name, bytes, block_size);
    }
  }
}

TEST(RangeReader, LineLongerThanTheReadBlock) {
  // One line longer than a real read block between two short ones; the
  // seams that matter sit at the block edges and the newlines.
  const std::uint64_t block = logging::kReadBlock;
  const std::string bytes =
      "head\n" + std::string(block + 100, 'x') + "\ntail";
  const std::uint64_t n = bytes.size();
  expect_any_seam_reads_like_bundle(
      "long.log", bytes, block,
      {0, 4, 5, 6, block - 1, block, block + 1, n - 6, n - 5, n - 4, n - 1,
       n});
}

TEST(RangeReader, RotatedFamilyWithUnterminatedMiddleSegmentMinesLikeBundle) {
  // The middle segment's last line has no newline: it is a whole line of
  // that segment, never glued to the first line of the next one.
  const fs::path dir = scratch_dir("sdc_range_rotated");
  const std::string rm_app =
      "org.apache.hadoop.yarn.server.resourcemanager.rmapp.RMAppImpl";
  const auto rm_line = [&](int i) {
    return line(i * 10, rm_app,
                "application_1499100000000_000" + std::to_string(1 + i % 3) +
                    " State change from NEW_SAVING to SUBMITTED on event = "
                    "APP_NEW_SAVED");
  };
  write_bytes(dir / "rm.log.2", rm_line(0) + "\n" + rm_line(1) + "\n");
  write_bytes(dir / "rm.log.1", rm_line(2) + "\n" + rm_line(3));
  write_bytes(dir / "rm.log", rm_line(4) + "\r\n" + rm_line(5) + "\n");
  const MinedCorpus via_bundle =
      mine(logging::LogBundle::read_from_directory(dir), MinerOptions{1});
  ASSERT_EQ(via_bundle.streams.size(), 1u);
  EXPECT_EQ(via_bundle.lines_total, 6u);
  for (const MinerOptions options :
       {MinerOptions{1}, MinerOptions{4, 1}, MinerOptions{3, 7},
        MinerOptions{8, 2}, MinerOptions{4, 0}}) {
    expect_same_mine(via_bundle, mine_directory(dir, options));
  }
  fs::remove_all(dir);
}

TEST(RangeReader, EveryDamageClassMinesLikeBundle) {
  // Every corpus-mutator damage class (torn heads and tails, rotated
  // segments, NUL-bearing garbage, clock steps, interleaving) read from
  // disk — in one range per file and in ranges of a few bytes — mines
  // exactly as the in-memory bundle does.
  const logging::LogBundle golden =
      logging::LogBundle::read_from_directory(golden_small_dir());
  const fs::path dir = scratch_dir("sdc_range_damage");
  for (const std::uint64_t seed : {42ull, 20170703ull}) {
    for (const MutationClass cls : all_mutation_classes()) {
      const logging::LogBundle mutated = apply_mutation(golden, cls, seed);
      fs::remove_all(dir);
      mutated.write_to_directory(dir);
      const MinedCorpus in_memory = mine(mutated, MinerOptions{1});
      EXPECT_GT(in_memory.lines_total, 0u) << mutation_class_name(cls);
      for (const MinerOptions options :
           {MinerOptions{1}, MinerOptions{4, 1}, MinerOptions{3, 64}}) {
        SCOPED_TRACE(std::string(mutation_class_name(cls)) + " seed " +
                     std::to_string(seed) + " grain " +
                     std::to_string(options.shard_grain));
        expect_same_mine(in_memory, mine_directory(dir, options));
      }
    }
  }
  fs::remove_all(dir);
}

TEST(RangeReader, SplitsLinesLikeGetline) {
  // The reader hands out the bytes between newlines, the unterminated
  // tail included; the '\r' goes at the cursor, not here.
  const fs::path dir = scratch_dir("sdc_range_getline");
  write_bytes(dir / "a.log", "a\nbb\n\nccc\r\nfinal");
  const RangeRead read = read_range(dir / "a.log", 0, 16, logging::kReadBlock);
  EXPECT_EQ(read.lines,
            (std::vector<std::string>{"a", "bb", "", "ccc\r", "final"}));
  EXPECT_EQ(read.consumed, 16u);
  const MinedCorpus mined = mine_directory(dir);
  EXPECT_EQ(mined.lines_total, 5u);
  fs::remove_all(dir);
}

TEST(RangeReader, EmptyFile) {
  const fs::path dir = scratch_dir("sdc_range_empty");
  write_bytes(dir / "empty.log", "");
  const RangeRead read = read_range(dir / "empty.log", 0, 0, 64);
  EXPECT_TRUE(read.lines.empty());
  EXPECT_EQ(read.consumed, 0u);
  // An empty file is still a stream, of no lines.
  const MinedCorpus mined = mine_directory(dir);
  ASSERT_EQ(mined.streams.size(), 1u);
  EXPECT_EQ(mined.streams[0].lines_total, 0u);
  fs::remove_all(dir);
}

TEST(DirectoryMine, MatchesBundleRead) {
  const fs::path dir = scratch_dir("sdc_log_view_test");
  write_bytes(dir / "a.log", "line one\nline two\r\nline three");
  write_bytes(dir / "empty.log", "");
  const MinedCorpus via_bundle =
      mine(logging::LogBundle::read_from_directory(dir));
  const MinedCorpus via_directory = mine_directory(dir);
  expect_same_mine(via_bundle, via_directory);
  ASSERT_EQ(via_directory.streams.size(), 2u);
  EXPECT_EQ(via_directory.streams[0].lines_total, 3u);
  EXPECT_EQ(via_directory.streams[1].lines_total, 0u);
  fs::remove_all(dir);
}

TEST(BundleMine, CountsBytesLikeAFile) {
  // An in-memory plan mines the bundle's own lines, planned and counted
  // in bytes like a file's: each line with one newline.
  logging::LogBundle bundle;
  bundle.append("s.log", "hello world");
  bundle.append("s.log", "second\r");
  obs::Counter& bytes = obs::catalog_counter(obs::metric::kMineBytes);
  obs::Gauge& expected = obs::catalog_gauge(obs::metric::kMineBytesExpected);
  const std::uint64_t bytes_before = bytes.value();
  const std::int64_t expected_before = expected.value();
  const MinedCorpus mined = mine(bundle);
  EXPECT_EQ(mined.lines_total, 2u);
  EXPECT_EQ(bytes.value() - bytes_before, 20u);
  EXPECT_EQ(expected.value() - expected_before, 20);
}

TEST(DirectoryMine, GoldenCorpusMinesLikeBundle) {
  const auto dir = golden_small_dir();
  const MinedCorpus via_bundle =
      mine(logging::LogBundle::read_from_directory(dir), MinerOptions{1});
  const MinedCorpus via_view = mine_directory(dir, MinerOptions{1});
  expect_same_mine(via_bundle, via_view);
}

// --- parallel_for ------------------------------------------------------------

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

}  // namespace
}  // namespace sdc::checker
