// Unit tests for src/logging: timestamp codec, record rendering, bundle
// round-trips, the unreadable-file record, logger clock/skew behaviour.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <random>
#include <string>

#include "logging/diagnostics.hpp"
#include "logging/log_bundle.hpp"
#include "logging/logger.hpp"
#include "logging/record.hpp"
#include "logging/timestamp.hpp"

namespace sdc::logging {
namespace {

// --- timestamp codec -------------------------------------------------------

TEST(Timestamp, FormatKnownEpoch) {
  // 2017-07-03 16:40:00.000 UTC
  EXPECT_EQ(format_epoch_ms(1'499'100'000'000), "2017-07-03 16:40:00,000");
  EXPECT_EQ(format_epoch_ms(1'499'100'000'123), "2017-07-03 16:40:00,123");
  EXPECT_EQ(format_epoch_ms(0), "1970-01-01 00:00:00,000");
}

TEST(Timestamp, RoundTripRandomInstants) {
  for (std::int64_t base : {0LL, 1'499'100'000'000LL, 1'600'000'000'000LL}) {
    for (std::int64_t delta :
         {0LL, 1LL, 999LL, 86'399'999LL, 86'400'000LL, 31'536'000'000LL}) {
      const std::int64_t ms = base + delta;
      const auto parsed = parse_epoch_ms(format_epoch_ms(ms));
      ASSERT_TRUE(parsed.has_value()) << format_epoch_ms(ms);
      EXPECT_EQ(*parsed, ms);
    }
  }
}

TEST(Timestamp, RoundTripLeapDayAndYearBoundaries) {
  for (const char* text :
       {"2016-02-29 12:00:00,500", "2017-12-31 23:59:59,999",
        "2018-01-01 00:00:00,000", "2000-02-29 00:00:00,001"}) {
    const auto ms = parse_epoch_ms(text);
    ASSERT_TRUE(ms.has_value()) << text;
    EXPECT_EQ(format_epoch_ms(*ms), text);
  }
}

TEST(Timestamp, ParseRejectsMalformed) {
  EXPECT_FALSE(parse_epoch_ms("").has_value());
  EXPECT_FALSE(parse_epoch_ms("2017-07-03").has_value());
  EXPECT_FALSE(parse_epoch_ms("2017/07/03 16:40:00,000").has_value());
  EXPECT_FALSE(parse_epoch_ms("2017-07-03 16:40:00.000").has_value());
  EXPECT_FALSE(parse_epoch_ms("2017-13-03 16:40:00,000").has_value());
  EXPECT_FALSE(parse_epoch_ms("2017-07-32 16:40:00,000").has_value());
  EXPECT_FALSE(parse_epoch_ms("2017-07-03 24:40:00,000").has_value());
  EXPECT_FALSE(parse_epoch_ms("2017-07-03 16:60:00,000").has_value());
  EXPECT_FALSE(parse_epoch_ms("2017-07-03 16:40:60,000").has_value());
  EXPECT_FALSE(parse_epoch_ms("2017-07-03 16:40:00,0ab").has_value());
  EXPECT_FALSE(parse_epoch_ms("20X7-07-03 16:40:00,000").has_value());
}

TEST(Timestamp, ParseRejectsImpossibleCalendarDates) {
  // Regression: days-from-civil arithmetic silently normalizes Feb 31
  // into early March, so these used to parse to a wrong (valid-looking)
  // epoch instead of being rejected.
  EXPECT_FALSE(parse_epoch_ms("2017-02-31 12:00:00,000").has_value());
  EXPECT_FALSE(parse_epoch_ms("2017-02-30 12:00:00,000").has_value());
  EXPECT_FALSE(parse_epoch_ms("2017-04-31 12:00:00,000").has_value());
  EXPECT_FALSE(parse_epoch_ms("2017-06-31 12:00:00,000").has_value());
  EXPECT_FALSE(parse_epoch_ms("2017-09-31 12:00:00,000").has_value());
  EXPECT_FALSE(parse_epoch_ms("2017-11-31 12:00:00,000").has_value());
  // Feb 29 exists only in leap years.
  EXPECT_FALSE(parse_epoch_ms("2017-02-29 12:00:00,000").has_value());
  EXPECT_FALSE(parse_epoch_ms("1900-02-29 12:00:00,000").has_value());
  EXPECT_TRUE(parse_epoch_ms("2016-02-29 12:00:00,000").has_value());
  EXPECT_TRUE(parse_epoch_ms("2000-02-29 12:00:00,000").has_value());
  EXPECT_FALSE(parse_epoch_ms("2017-07-00 12:00:00,000").has_value());
  EXPECT_FALSE(parse_epoch_ms("2017-00-03 12:00:00,000").has_value());
}

TEST(Timestamp, ValidCivilDateTable) {
  EXPECT_TRUE(valid_civil_date(2017, 1, 31));
  EXPECT_TRUE(valid_civil_date(2017, 12, 31));
  EXPECT_TRUE(valid_civil_date(2017, 2, 28));
  EXPECT_FALSE(valid_civil_date(2017, 2, 29));
  EXPECT_TRUE(valid_civil_date(2016, 2, 29));
  EXPECT_FALSE(valid_civil_date(2016, 2, 30));
  EXPECT_FALSE(valid_civil_date(2100, 2, 29));  // century non-leap
  EXPECT_TRUE(valid_civil_date(2400, 2, 29));   // 400-year leap
  EXPECT_FALSE(valid_civil_date(2017, 0, 1));
  EXPECT_FALSE(valid_civil_date(2017, 13, 1));
  EXPECT_FALSE(valid_civil_date(2017, 4, 31));
  EXPECT_TRUE(valid_civil_date(2017, 4, 30));
}

TEST(Timestamp, FormatParseRoundTripProperty) {
  // format∘parse must be the identity over a deterministic sweep of
  // instants covering leap years, month lengths and day boundaries —
  // and every rendered (y, m, d) must satisfy valid_civil_date, so the
  // parser can never reject what the formatter produces.
  std::mt19937_64 rng(20170703);
  std::uniform_int_distribution<std::int64_t> instant(
      0, 4'102'444'800'000);  // 1970..2100
  for (int i = 0; i < 2000; ++i) {
    const std::int64_t ms = instant(rng);
    const std::string text = format_epoch_ms(ms);
    const auto parsed = parse_epoch_ms(text);
    ASSERT_TRUE(parsed.has_value()) << text;
    EXPECT_EQ(*parsed, ms) << text;
    const auto year = std::stoll(text.substr(0, 4));
    const auto month = static_cast<unsigned>(std::stoul(text.substr(5, 2)));
    const auto day = static_cast<unsigned>(std::stoul(text.substr(8, 2)));
    EXPECT_TRUE(valid_civil_date(year, month, day)) << text;
  }
}

// --- record -----------------------------------------------------------------

TEST(Record, RenderMatchesLog4jLayout) {
  LogRecord record;
  record.epoch_ms = 1'499'100'000'123;
  record.level = Level::kInfo;
  record.logger = "org.apache.hadoop.yarn.Example";
  record.message = "hello world";
  EXPECT_EQ(record.render(),
            "2017-07-03 16:40:00,123 INFO  org.apache.hadoop.yarn.Example: "
            "hello world");
}

TEST(Record, LevelNames) {
  EXPECT_EQ(level_name(Level::kDebug), "DEBUG");
  EXPECT_EQ(level_name(Level::kInfo), "INFO ");
  EXPECT_EQ(level_name(Level::kWarn), "WARN ");
  EXPECT_EQ(level_name(Level::kError), "ERROR");
}

// --- bundle ------------------------------------------------------------------

TEST(LogBundle, AppendAndQuery) {
  LogBundle bundle;
  EXPECT_FALSE(bundle.has_stream("a.log"));
  bundle.append("a.log", "line1");
  bundle.append("a.log", "line2");
  bundle.append("b.log", "other");
  EXPECT_TRUE(bundle.has_stream("a.log"));
  EXPECT_EQ(bundle.stream_count(), 2u);
  EXPECT_EQ(bundle.total_lines(), 3u);
  ASSERT_EQ(bundle.lines("a.log").size(), 2u);
  EXPECT_EQ(bundle.lines("a.log")[1], "line2");
  EXPECT_TRUE(bundle.lines("missing.log").empty());
}

TEST(LogBundle, StreamNamesSorted) {
  LogBundle bundle;
  bundle.append("z.log", "x");
  bundle.append("a.log", "x");
  bundle.append("m.log", "x");
  const auto names = bundle.stream_names();
  ASSERT_EQ(names.size(), 3u);
  EXPECT_EQ(names[0], "a.log");
  EXPECT_EQ(names[2], "z.log");
}

TEST(LogBundle, DirectoryRoundTrip) {
  const auto dir =
      std::filesystem::temp_directory_path() / "sdc-logbundle-test";
  std::filesystem::remove_all(dir);
  LogBundle bundle;
  bundle.append("rm.log", "alpha");
  bundle.append("rm.log", "beta");
  bundle.append("nm-node01.cluster.log", "gamma");
  bundle.write_to_directory(dir);

  const LogBundle loaded = LogBundle::read_from_directory(dir);
  EXPECT_EQ(loaded.stream_count(), 2u);
  ASSERT_EQ(loaded.lines("rm.log").size(), 2u);
  EXPECT_EQ(loaded.lines("rm.log")[0], "alpha");
  EXPECT_EQ(loaded.lines("nm-node01.cluster.log")[0], "gamma");
  std::filesystem::remove_all(dir);
}

TEST(LogBundle, ReadMissingDirectoryThrows) {
  EXPECT_THROW(LogBundle::read_from_directory("/nonexistent/sdc-xyz"),
               std::runtime_error);
}

// --- diagnostics -------------------------------------------------------------

TEST(Diagnostic, UnreadableFileRecord) {
  // Batch mining and follow both report a lost file with this record,
  // and exports print its detail as is.
  const Diagnostic record = unreadable_file("rm.log", "/logs/rm.log");
  EXPECT_EQ(record.kind, DiagnosticKind::kUnreadableFile);
  EXPECT_EQ(record.stream, "rm.log");
  EXPECT_EQ(record.line_no, 0u);
  EXPECT_EQ(record.count, 1u);
  EXPECT_EQ(record.detail, "LogView: cannot read /logs/rm.log");
}

// --- logger -------------------------------------------------------------------

TEST(Logger, WritesRenderedLineAtWallClock) {
  LogBundle bundle;
  Logger logger(&bundle, "test.log", 1'499'100'000'000);
  logger.info(millis(1500), "a.b.C", "msg");
  ASSERT_EQ(bundle.lines("test.log").size(), 1u);
  EXPECT_EQ(bundle.lines("test.log")[0],
            "2017-07-03 16:40:01,500 INFO  a.b.C: msg");
}

TEST(Logger, ClockSkewShiftsTimestamps) {
  LogBundle bundle;
  Logger skewed(&bundle, "skew.log", 1'499'100'000'000, /*skew_ms=*/-250);
  skewed.info(millis(1000), "a.C", "msg");
  EXPECT_EQ(bundle.lines("skew.log")[0].substr(0, 23),
            "2017-07-03 16:40:00,750");
  EXPECT_EQ(skewed.wall_ms(millis(1000)), 1'499'100'000'750);
}

TEST(Logger, SubMillisecondTimesCollapse) {
  // Two events 400us apart must stamp the same millisecond — the
  // measurement floor of the whole analysis (paper §III-A).
  LogBundle bundle;
  Logger logger(&bundle, "t.log", 1'499'100'000'000);
  logger.info(micros(1200), "a.C", "first");
  logger.info(micros(1600), "a.C", "second");
  EXPECT_EQ(bundle.lines("t.log")[0].substr(0, 23),
            bundle.lines("t.log")[1].substr(0, 23));
}

}  // namespace
}  // namespace sdc::logging
