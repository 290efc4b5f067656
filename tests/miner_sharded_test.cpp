// Sharded-mining equivalence and the byte-range reader.
//
// The contract of intra-stream sharding is that it is *invisible*: the
// sharded miner must produce the same events, ids, diagnostics and
// ordering as a serial pass, on any corpus.  These tests force many tiny
// chunks (shard_grain far below stream length) to exercise every stitch
// rule: FIRST_LOG synthesis across a chunk boundary, kind classification
// landing in a late chunk, and id binding discovered after events were
// already extracted in earlier chunks.  The reader's own contract is that
// ranges tiling a file hand out its lines exactly once, whatever the
// seams: every split offset of a set of edge files is tried.
#include <gtest/gtest.h>

#include <fcntl.h>
#include <unistd.h>

#include <atomic>
#include <filesystem>
#include <fstream>

#include "common/thread_pool.hpp"
#include "logging/line_reader.hpp"
#include "logging/timestamp.hpp"
#include "obs/metric_catalog.hpp"
#include "sdchecker/corpus_mutator.hpp"
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

// --- byte-range reader -------------------------------------------------------

namespace fs = std::filesystem;

/// Fresh (pre-cleaned) scratch directory for one test.
fs::path scratch_dir(const std::string& name) {
  const fs::path dir = fs::temp_directory_path() / name;
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir;
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
/// `LogBundle::read_from_directory`'s lines (which strips the '\r' the
/// cursor strips).  `block_size` below the line lengths makes every line
/// span reads.
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
  ASSERT_EQ(whole.lines.size(), expected.size()) << name;
  for (std::size_t i = 0; i < expected.size(); ++i) {
    std::string_view line = whole.lines[i];
    if (!line.empty() && line.back() == '\r') line.remove_suffix(1);
    EXPECT_EQ(line, expected[i]) << name << " line " << i;
  }
  const std::string one_cursor = cursor_state(cursor_of(whole.lines));
  EXPECT_EQ(cursor_state(cursor_of(expected)), one_cursor) << name;

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
  const MineResult via_bundle = LogMiner(MinerOptions{1}).mine(
      logging::LogBundle::read_from_directory(dir));
  ASSERT_EQ(via_bundle.streams.size(), 1u);
  EXPECT_EQ(via_bundle.lines_total, 6u);
  for (const MinerOptions options :
       {MinerOptions{1}, MinerOptions{4, 1}, MinerOptions{3, 7},
        MinerOptions{8, 2}, MinerOptions{4, 0}}) {
    expect_same_events(via_bundle, LogMiner(options).mine_directory(dir));
  }
  fs::remove_all(dir);
}

TEST(RangeReader, EveryDamageClassMinesLikeBundle) {
  // Every corpus-mutator damage class (torn heads and tails, rotated
  // segments, NUL-bearing garbage, clock steps, interleaving) read from
  // disk — in one range per file and in ranges of a few bytes — mines
  // exactly as the in-memory bundle does.
  const logging::LogBundle golden =
      logging::LogBundle::read_from_directory(corpus_dir());
  const fs::path dir = fs::temp_directory_path() / "sdc_range_damage";
  for (const std::uint64_t seed : {42ull, 20170703ull}) {
    for (const MutationClass cls : all_mutation_classes()) {
      const logging::LogBundle mutated = apply_mutation(golden, cls, seed);
      fs::remove_all(dir);
      mutated.write_to_directory(dir);
      const MineResult in_memory = LogMiner(MinerOptions{1}).mine(mutated);
      EXPECT_GT(in_memory.lines_total, 0u) << mutation_class_name(cls);
      for (const MinerOptions options :
           {MinerOptions{1}, MinerOptions{4, 1}, MinerOptions{3, 64}}) {
        SCOPED_TRACE(std::string(mutation_class_name(cls)) + " seed " +
                     std::to_string(seed) + " grain " +
                     std::to_string(options.shard_grain));
        expect_same_events(in_memory, LogMiner(options).mine_directory(dir));
      }
    }
  }
  fs::remove_all(dir);
}

TEST(LogView, FromBufferSplitsLikeGetline) {
  // The reader hands out the bytes between newlines, the unterminated
  // tail included; the '\r' goes at the cursor, not here.
  const fs::path dir = scratch_dir("sdc_range_getline");
  write_bytes(dir / "a.log", "a\nbb\n\nccc\r\nfinal");
  const RangeRead read = read_range(dir / "a.log", 0, 16, logging::kReadBlock);
  EXPECT_EQ(read.lines,
            (std::vector<std::string>{"a", "bb", "", "ccc\r", "final"}));
  EXPECT_EQ(read.consumed, 16u);
  const MineResult mined = LogMiner().mine_directory(dir);
  EXPECT_EQ(mined.lines_total, 5u);
  fs::remove_all(dir);
}

TEST(LogView, EmptyBuffer) {
  const fs::path dir = scratch_dir("sdc_range_empty");
  write_bytes(dir / "empty.log", "");
  const RangeRead read = read_range(dir / "empty.log", 0, 0, 64);
  EXPECT_TRUE(read.lines.empty());
  EXPECT_EQ(read.consumed, 0u);
  // An empty file is still a stream, of no lines.
  const MineResult mined = LogMiner().mine_directory(dir);
  ASSERT_EQ(mined.streams.size(), 1u);
  EXPECT_EQ(mined.streams[0].lines_total, 0u);
  fs::remove_all(dir);
}

TEST(LogView, FromFileMatchesBundleRead) {
  const fs::path dir = scratch_dir("sdc_log_view_test");
  write_bytes(dir / "a.log", "line one\nline two\r\nline three");
  write_bytes(dir / "empty.log", "");
  const MineResult via_bundle =
      LogMiner().mine(logging::LogBundle::read_from_directory(dir));
  const MineResult via_directory = LogMiner().mine_directory(dir);
  expect_same_events(via_bundle, via_directory);
  ASSERT_EQ(via_directory.streams.size(), 2u);
  EXPECT_EQ(via_directory.streams[0].lines_total, 3u);
  EXPECT_EQ(via_directory.streams[1].lines_total, 0u);
  fs::remove_all(dir);
}

TEST(BundleView, FromBundleIsZeroCopy) {
  // An in-memory plan mines the bundle's own lines, planned and counted
  // in bytes like a file's: each line with one newline.
  logging::LogBundle bundle;
  bundle.append("s.log", "hello world");
  bundle.append("s.log", "second\r");
  obs::Counter& bytes = obs::catalog_counter(obs::metric::kMineBytes);
  obs::Gauge& expected = obs::catalog_gauge(obs::metric::kMineBytesExpected);
  const std::uint64_t bytes_before = bytes.value();
  const std::int64_t expected_before = expected.value();
  const MineResult mined = LogMiner().mine(bundle);
  EXPECT_EQ(mined.lines_total, 2u);
  EXPECT_EQ(bytes.value() - bytes_before, 20u);
  EXPECT_EQ(expected.value() - expected_before, 20);
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
