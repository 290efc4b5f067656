// Test helper: mines a corpus the way `CorpusPipeline` does, minus
// grouping — every chunk of a `MinePlan` (on a pool when more than one
// thread is asked for), then every stream's stitch.  A stitched stream's
// events come out in one order at every grain and thread count (its
// ranges' rows in file order, then FIRST_LOG), so tests compare streams
// row by row with no sort.
#pragma once

#include <gtest/gtest.h>

#include <cstddef>
#include <filesystem>
#include <optional>
#include <string>
#include <vector>

#include "common/thread_pool.hpp"
#include "logging/diagnostics.hpp"
#include "logging/log_bundle.hpp"
#include "sdchecker/miner.hpp"

namespace sdc::checker {

struct MinedCorpus {
  /// Every stream with at least one readable file, in name order.
  std::vector<MinedStream> streams;
  /// One kUnreadableFile record per file that could not be read.
  std::vector<logging::Diagnostic> unreadable;
  std::size_t lines_total = 0;
  std::size_t lines_unparsed = 0;
  std::size_t events = 0;
  /// Per-kind totals over `unreadable` and every stream's diagnostics.
  logging::DiagnosticCounts diag_counts;

  /// The stream named `name`, or nullptr.
  [[nodiscard]] const MinedStream* stream(const std::string& name) const {
    for (const MinedStream& mined : streams) {
      if (mined.name == name) return &mined;
    }
    return nullptr;
  }
};

inline MinedCorpus mine_plan(MinePlan plan, std::size_t threads) {
  const auto run_chunk = [&plan](std::size_t chunk) { plan.run_chunk(chunk); };
  if (threads > 1) {
    ThreadPool pool(threads);
    parallel_for(pool, plan.chunk_count(), run_chunk);
  } else {
    for (std::size_t c = 0; c < plan.chunk_count(); ++c) run_chunk(c);
  }
  MinedCorpus out;
  for (std::size_t s = 0; s < plan.stream_count(); ++s) {
    std::optional<MinedStream> stream = plan.stitch(s, out.unreadable);
    if (!stream) continue;
    out.lines_total += stream->lines_total;
    out.lines_unparsed += stream->lines_unparsed;
    out.events += stream->events.size();
    out.diag_counts += stream->diag_counts;
    out.streams.push_back(std::move(*stream));
  }
  for (const logging::Diagnostic& record : out.unreadable) {
    out.diag_counts.add(record);
  }
  return out;
}

inline MinedCorpus mine(const logging::LogBundle& bundle,
                        const MinerOptions& options = {}) {
  return mine_plan(MinePlan(bundle, options), options.threads);
}

inline MinedCorpus mine_directory(const std::filesystem::path& dir,
                                  const MinerOptions& options = {}) {
  return mine_plan(MinePlan(dir, options), options.threads);
}

/// Mines one stream given as its lines.
inline MinedStream mine_lines(const std::string& name,
                              const std::vector<std::string>& lines) {
  logging::LogBundle bundle;
  for (const std::string& line : lines) bundle.append(name, line);
  MinedCorpus mined = mine(bundle);
  EXPECT_EQ(mined.streams.size(), 1u) << name;
  return mined.streams.empty() ? MinedStream{} : std::move(mined.streams[0]);
}

/// Expects two mines of one corpus to agree stream by stream: every
/// event row, the stream's ids and lines, and its diagnostics.
inline void expect_same_mine(const MinedCorpus& a, const MinedCorpus& b) {
  EXPECT_EQ(a.lines_total, b.lines_total);
  EXPECT_EQ(a.lines_unparsed, b.lines_unparsed);
  EXPECT_EQ(a.events, b.events);
  EXPECT_EQ(a.unreadable.size(), b.unreadable.size());
  for (std::size_t i = 0; i < logging::kDiagnosticKindCount; ++i) {
    EXPECT_EQ(a.diag_counts.by_kind[i], b.diag_counts.by_kind[i]);
  }
  ASSERT_EQ(a.streams.size(), b.streams.size());
  for (std::size_t s = 0; s < a.streams.size(); ++s) {
    const MinedStream& x = a.streams[s];
    const MinedStream& y = b.streams[s];
    SCOPED_TRACE(x.name);
    EXPECT_EQ(x.name, y.name);
    EXPECT_EQ(x.kind, y.kind);
    EXPECT_EQ(x.lines_total, y.lines_total);
    EXPECT_EQ(x.lines_unparsed, y.lines_unparsed);
    EXPECT_EQ(x.bound_app, y.bound_app);
    EXPECT_EQ(x.bound_container, y.bound_container);
    ASSERT_EQ(x.events.size(), y.events.size());
    for (std::size_t i = 0; i < x.events.size(); ++i) {
      const EventBatch::View e = x.events[i];
      const EventBatch::View f = y.events[i];
      EXPECT_EQ(e.kind, f.kind) << "event " << i;
      EXPECT_EQ(e.ts_ms, f.ts_ms) << "event " << i;
      EXPECT_EQ(e.app, f.app) << "event " << i;
      EXPECT_EQ(e.container, f.container) << "event " << i;
    }
    // Diagnostics are part of the sharding-invisibility contract: the
    // stitch pass must fold per-chunk provisional state into the exact
    // records a serial pass emits.
    ASSERT_EQ(x.diagnostics.size(), y.diagnostics.size());
    for (std::size_t d = 0; d < x.diagnostics.size(); ++d) {
      const logging::Diagnostic& p = x.diagnostics[d];
      const logging::Diagnostic& q = y.diagnostics[d];
      EXPECT_EQ(p.kind, q.kind) << "diag " << d;
      EXPECT_EQ(p.line_no, q.line_no) << "diag " << d;
      EXPECT_EQ(p.count, q.count) << "diag " << d;
      EXPECT_EQ(p.detail, q.detail) << "diag " << d;
    }
  }
}

}  // namespace sdc::checker
