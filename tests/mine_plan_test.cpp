// The plan's listing and layout: a directory's `fstatat` calls run in
// slices on a pool and the plan must not depend on it; the plan is flat
// (one name buffer, one member vector), so stream names must survive
// short names that a `std::string` would keep inline; and rotated
// families are grouped by the one `rotation_families` rule.
#include <gtest/gtest.h>
#include <stdlib.h>
#include <sys/stat.h>

#include <filesystem>
#include <fstream>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "common/thread_pool.hpp"
#include "golden_dir.hpp"
#include "mine_helpers.hpp"
#include "sdchecker/export.hpp"
#include "sdchecker/sdchecker.hpp"

namespace sdc::checker {
namespace {

namespace fs = std::filesystem;

/// A fresh directory of its own under the temp directory.
fs::path scratch_dir(const std::string& prefix) {
  std::string pattern =
      (fs::temp_directory_path() / (prefix + "_XXXXXX")).string();
  if (::mkdtemp(pattern.data()) == nullptr) {
    ADD_FAILURE() << "mkdtemp failed for " << pattern;
  }
  return pattern;
}

void write_file(const fs::path& path, const std::string& text) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << text;
}

std::string read_file(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

/// The golden corpus with its RM log rotated into `rm.log.2`, `rm.log.1`
/// and `rm.log`, a dotfile, one driver log reached through a symlink
/// from outside, and entries the listing must skip: a dangling symlink,
/// a subdirectory, a FIFO, and symlinks to the last two.  Filler logs
/// make the listing span several `fstatat` slices.  `outside` receives
/// the symlink's target.
fs::path write_listing_corpus(const fs::path& outside) {
  const fs::path dir = scratch_dir("sdc_mine_plan_listing");
  for (const fs::directory_entry& entry :
       fs::directory_iterator(golden_small_dir())) {
    const std::string name = entry.path().filename().string();
    const std::string text = read_file(entry.path());
    if (name == "rm.log") {
      const std::size_t third = text.find('\n', text.size() / 3) + 1;
      const std::size_t two_thirds = text.find('\n', 2 * text.size() / 3) + 1;
      write_file(dir / "rm.log.2", text.substr(0, third));
      write_file(dir / "rm.log.1", text.substr(third, two_thirds - third));
      write_file(dir / "rm.log", text.substr(two_thirds));
    } else if (name == "driver-application_1499100000000_0002.log") {
      write_file(outside / name, text);
      fs::create_symlink(outside / name, dir / name);
    } else if (name == "nm-node01.cluster.log") {
      write_file(dir / ("." + name), text);
    } else {
      write_file(dir / name, text);
    }
  }
  for (int i = 0; i < 300; ++i) {
    write_file(dir / ("filler-" + std::to_string(i) + ".log"),
               "2017-07-03 16:40:00,000 INFO  org.example.Noise: filler " +
                   std::to_string(i) + "\n");
  }
  fs::create_symlink(dir / "no-such-file.log", dir / "dangling.log");
  fs::create_directory(dir / "subdir.log");
  fs::create_symlink(dir / "subdir.log", dir / "subdir-link.log");
  EXPECT_EQ(::mkfifo((dir / "fifo.log").c_str(), 0600), 0);
  fs::create_symlink(dir / "fifo.log", dir / "fifo-link.log");
  return dir;
}

/// Expects two plans of one input to have the same streams, ranges and
/// chunks.
void expect_same_plan(const MinePlan& a, const MinePlan& b) {
  ASSERT_EQ(a.stream_count(), b.stream_count());
  for (std::size_t s = 0; s < a.stream_count(); ++s) {
    EXPECT_EQ(a.ranges_of(s), b.ranges_of(s)) << "stream " << s;
  }
  ASSERT_EQ(a.chunk_count(), b.chunk_count());
  for (std::size_t c = 0; c < a.chunk_count(); ++c) {
    const std::span<const std::size_t> x = a.streams_of(c);
    const std::span<const std::size_t> y = b.streams_of(c);
    EXPECT_EQ(std::vector<std::size_t>(x.begin(), x.end()),
              std::vector<std::size_t>(y.begin(), y.end()))
        << "chunk " << c;
  }
}

TEST(MinePlanListing, PooledListingEqualsSerial) {
  const fs::path outside = scratch_dir("sdc_mine_plan_outside");
  const fs::path dir = write_listing_corpus(outside);
  const MinerOptions options{.threads = 4, .shard_grain = 512};

  ThreadPool pool(4);
  const MinePlan serial(dir, options);
  const MinePlan pooled(dir, options, &pool);
  expect_same_plan(serial, pooled);

  // Both plans mine the same rows; the skipped entries are absent and
  // the symlinked file and the dotfile are present.
  const MinedCorpus by_serial = mine_plan(MinePlan(dir, options), 4);
  const MinedCorpus by_pooled = mine_plan(MinePlan(dir, options, &pool), 4);
  expect_same_mine(by_serial, by_pooled);
  std::set<std::string> names;
  for (const MinedStream& stream : by_pooled.streams) {
    names.insert(stream.name);
  }
  EXPECT_EQ(names.size(), 18u + 300u);  // rm.log's family is one stream
  EXPECT_TRUE(names.contains("driver-application_1499100000000_0002.log"));
  EXPECT_TRUE(names.contains(".nm-node01.cluster.log"));
  for (const char* skipped : {"dangling.log", "subdir.log", "subdir-link.log",
                              "fifo.log", "fifo-link.log"}) {
    EXPECT_FALSE(names.contains(skipped)) << skipped;
  }
  EXPECT_TRUE(by_pooled.unreadable.empty());

  const std::string one = analysis_json(
      SdChecker({.threads = 1, .analyze_shards = 1}).analyze_directory(dir));
  const std::string four = analysis_json(
      SdChecker({.threads = 4, .analyze_shards = 4}).analyze_directory(dir));
  EXPECT_EQ(one, four);
  EXPECT_NE(one.find("reassembled 3 rotated segments: rm.log.2, rm.log.1, "
                     "rm.log"),
            std::string::npos);
  fs::remove_all(dir);
  fs::remove_all(outside);
}

std::string rotation_detail(const MinedStream& stream) {
  for (const logging::Diagnostic& diagnostic : stream.diagnostics) {
    if (diagnostic.kind == logging::DiagnosticKind::kRotationGap) {
      EXPECT_EQ(diagnostic.stream, stream.name);
      return diagnostic.detail;
    }
  }
  return "";
}

/// Short names fit a `std::string`'s inline buffer, where a moved string
/// copies its bytes: a stream name viewing a member that moved after the
/// view was taken would read freed or reused bytes.
void expect_short_families(const MinedCorpus& mined) {
  ASSERT_EQ(mined.streams.size(), 2u);
  const MinedStream* a = mined.stream("a");
  const MinedStream* b = mined.stream("b.log");
  ASSERT_NE(a, nullptr);
  ASSERT_NE(b, nullptr);
  EXPECT_EQ(a->lines_total, 3u);
  EXPECT_EQ(rotation_detail(*a), "reassembled 3 rotated segments: a.2, a.1, a");
  EXPECT_EQ(b->lines_total, 1u);
  EXPECT_EQ(rotation_detail(*b), "");
}

TEST(MinePlanLayout, ShortRotatedNamesKeepTheirStreams) {
  const std::string noise = "2017-07-03 16:40:00,000 INFO  org.example.Noise: ";
  logging::LogBundle bundle;
  for (const char* name : {"a.2", "a.1", "a", "b.log"}) {
    bundle.append(name, noise + name);
  }
  expect_short_families(mine(bundle));
  expect_short_families(mine(bundle, {.threads = 4, .shard_grain = 1}));

  const fs::path dir = scratch_dir("sdc_mine_plan_short");
  bundle.write_to_directory(dir);
  expect_short_families(mine_directory(dir));
  expect_short_families(mine_directory(dir, {.threads = 4, .shard_grain = 1}));
  ThreadPool pool(2);
  expect_short_families(
      mine_plan(MinePlan(dir, {.threads = 2, .shard_grain = 1}, &pool), 2));
  const AnalysisResult result = SdChecker().analyze_directory(dir);
  ASSERT_EQ(result.diagnostics.size(), 1u);
  EXPECT_EQ(result.diagnostics[0].stream, "a");
  fs::remove_all(dir);
}

TEST(RotationFamilies, GroupsByBaseInLogrotateOrder) {
  const std::vector<std::string_view> names = {
      "rm.log", "b", "rm.log.10", "x.1", "rm.log.2", "a.log", "rm.log.1"};
  const RotationFamilies families = rotation_families(names);
  ASSERT_EQ(families.size(), 4u);
  std::vector<std::string> got;
  for (const RotationFamily& family : families) {
    std::string line(family.base);
    line += ':';
    for (const std::size_t member : family.members) {
      line += ' ';
      line += names[member];
    }
    const std::optional<logging::Diagnostic> gap = family.gap(names);
    line += gap ? " | " + gap->detail : "";
    got.push_back(line);
  }
  EXPECT_EQ(got, (std::vector<std::string>{
                     "a.log: a.log",
                     "b: b",
                     "rm.log: rm.log.10 rm.log.2 rm.log.1 rm.log | reassembled "
                     "4 rotated segments: rm.log.10, rm.log.2, rm.log.1, "
                     "rm.log",
                     "x: x.1 | reassembled 1 rotated segments: x.1",
                 }));
  // Moving the families keeps their member runs valid.
  RotationFamilies moved = rotation_families(names);
  const RotationFamilies kept = std::move(moved);
  EXPECT_EQ(kept.size(), 4u);
  EXPECT_EQ(names[(*std::next(kept.begin(), 2)).members.front()], "rm.log.10");
}

}  // namespace
}  // namespace sdc::checker
