// Online (streaming) variant of the analyzer.
//
// The paper's tool is offline: collect all logs after the runs, then
// mine.  For a monitoring deployment one wants the same decomposition
// while the cluster runs — feeding lines as `tail -f` delivers them.
// The subtlety versus batch mining is ordering: a driver/executor
// stream's FIRST_LOG event and its milestone events arrive *before* the
// line that reveals which application/container the stream belongs to,
// so unbound events are parked per stream and flushed the moment the
// stream binds to an id.  Everything else a stream's lines say — its
// daemon kind, first timestamp, ids and health tallies — lives in one
// `StreamCursor` per stream, the same state the batch miner builds, so
// the drained analyzer reports exactly what batch mining reports.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "sdchecker/decompose.hpp"
#include "sdchecker/extractor.hpp"
#include "sdchecker/grouping.hpp"
#include "sdchecker/sdchecker.hpp"
#include "sdchecker/stream_cursor.hpp"

namespace sdc::checker {

/// Default cap on the events parked per not-yet-bound stream.
inline constexpr std::size_t kParkedEventsCap = 65536;

class IncrementalAnalyzer {
 public:
  /// `parked_events_cap`: maximum events parked per stream while the
  /// stream has not bound to an application id.  A stream that never
  /// binds would otherwise grow its parked buffer forever in a
  /// long-running service; past the cap, further events are dropped,
  /// counted, and reported as one kUnboundStream diagnostic per stream.
  explicit IncrementalAnalyzer(
      std::size_t parked_events_cap = kParkedEventsCap)
      : parked_events_cap_(parked_events_cap) {}

  /// Feeds one raw log line belonging to the named stream (file).  Lines
  /// of different streams may interleave arbitrarily; lines within one
  /// stream must arrive in file order (as a tail would deliver them).
  /// A trailing '\r' (CRLF-terminated logs) is not part of the line
  /// (`StreamCursor::feed`), as in batch mining.
  void feed(const std::string& stream, std::string_view line);

  /// Feeds a batch of lines for one stream.
  void feed_all(const std::string& stream,
                const std::vector<std::string>& lines);

  /// Live view of the grouped timelines.  Iteration order is the table's
  /// (stable for a given key set but unordered); sort by `first` when
  /// presenting.
  [[nodiscard]] const AppTable& timelines() const noexcept {
    return timelines_;
  }

  /// Decomposition of one application *as of now* (fields fill in as
  /// events arrive).
  [[nodiscard]] Delays delays_for(const ApplicationId& app) const;

  /// Full snapshot: decompositions, aggregates and anomalies over
  /// everything seen so far — retired applications included, folded into
  /// the delays/aggregate/anomaly outputs at their app-ID position.
  /// O(apps + streams): it finalizes every resident application and
  /// renders every stream's diagnostics — intended for periodic
  /// reporting.  Finalize runs on `pool`
  /// (nullptr = the calling thread); the report is byte-identical either
  /// way.
  [[nodiscard]] AnalysisResult snapshot(ThreadPool* pool = nullptr) const;

  // --- bounded-memory eviction (the follow service's discipline) ------
  //
  // A long-running ingestion loop cannot keep every application's full
  // timeline forever.  The loop advances a tick per poll; an application
  // whose terminal state-machine transition (RMAppImpl -> FINISHED) has
  // been mined and that has then stayed quiet for `quiet_ticks` ticks is
  // *retired*: its decomposition and anomaly findings are computed once
  // and cached in a RetiredTable, its delays are observed into the
  // sdc.delay.* histograms, and the full timeline is freed.  An
  // event arriving for an already-retired application is dropped and
  // counted (`events_late_dropped`) — the grace period exists precisely
  // to make that a pathological case.

  /// Advances the eviction clock; call once per ingestion poll.
  void advance_tick() noexcept { ++tick_; }

  /// Retires every terminal application that has been quiet for at least
  /// `quiet_ticks` ticks; returns how many were retired now.
  std::size_t retire_terminal(std::uint64_t quiet_ticks);

  /// Retired rows in app-ID order.
  [[nodiscard]] const RetiredTable& retired() const noexcept {
    return retired_;
  }
  /// Applications retired so far (== retired().size()).
  [[nodiscard]] std::size_t apps_retired() const noexcept {
    return retired_.size();
  }
  /// Applications whose full timelines are still resident.
  [[nodiscard]] std::size_t apps_resident() const noexcept {
    return timelines_.size();
  }
  /// True when `stream` is a driver or executor log bound to a retired
  /// application: a line it gains later can only carry events that
  /// would be dropped as late.
  [[nodiscard]] bool stream_retired(const std::string& stream) const;

  /// Events dropped because they arrived after their application was
  /// retired (0 unless the eviction grace was too aggressive).
  [[nodiscard]] std::size_t events_late_dropped() const noexcept {
    return events_late_dropped_;
  }

  [[nodiscard]] std::size_t lines_total() const noexcept {
    return lines_total_;
  }
  [[nodiscard]] std::size_t lines_unparsed() const noexcept {
    return lines_unparsed_;
  }
  /// Every event extracted so far — applied, parked, or dropped under
  /// the parked cap — matching the batch miner's event count.
  [[nodiscard]] std::size_t events_total() const noexcept {
    return events_total_;
  }
  /// Events not attributed to any application: currently parked because
  /// their stream has not bound yet, plus events dropped when a stream's
  /// parked buffer overflowed the parked-event cap.
  [[nodiscard]] std::size_t events_pending() const noexcept {
    return events_pending_;
  }

  /// Typed corpus-health findings so far, in stream order — each
  /// stream's cursor rendered as the stream stands now (its last fed
  /// line is its last line), plus the unbound-stream record of a stream
  /// whose parked events overflowed.  Once every line is fed these are
  /// the records `MinePlan::stitch` renders for the same streams.
  [[nodiscard]] std::vector<logging::Diagnostic> diagnostics() const;

 private:
  struct StreamState {
    std::string name;
    /// Binds the stream on the first line that carries an id
    /// (`StreamCursor::bound_app`), the rule batch mining applies too.
    StreamCursor cursor;
    /// Stream-scoped events waiting for the stream to bind, capped at
    /// `parked_events_cap_`; allocated on first use.
    std::unique_ptr<EventBatch> parked;
    /// Events dropped past the cap (reported as one kUnboundStream
    /// diagnostic per stream).
    std::size_t parked_dropped = 0;
    std::size_t parked_dropped_first_line = 0;
  };

  /// Per-application eviction bookkeeping, erased on retirement.
  struct AppActivity {
    std::uint64_t last_tick = 0;
    bool terminal = false;
  };

  /// Applies row `i` of `events` (new or previously parked), or parks or
  /// drops it while the stream has no application id yet.  Binds the
  /// row's missing ids in place.
  void resolve_or_park(StreamState& state, EventBatch& events, std::size_t i);
  /// Called when a stream just bound; flushes parked events.
  void flush_parked(StreamState& state);

  std::size_t parked_events_cap_;
  /// Every stream fed so far, in first-fed order.  A snapshot walks them
  /// all (`diagnostics`); contiguous states keep that walk a sequential
  /// scan.
  std::vector<StreamState> streams_;
  /// Stream name -> index in `streams_`: one lookup per fed line.
  std::unordered_map<std::string, std::size_t> stream_index_;
  AppTable timelines_;
  std::unordered_map<ApplicationId, AppActivity, ApplicationIdHash> activity_;
  RetiredTable retired_;
  /// One line's extracted events.
  EventBatch extracted_;
  std::uint64_t tick_ = 0;
  std::size_t lines_total_ = 0;
  std::size_t lines_unparsed_ = 0;
  std::size_t events_total_ = 0;
  /// Parked plus dropped-past-the-cap rows, kept as they change so a
  /// snapshot need not walk every stream for them.
  std::size_t events_pending_ = 0;
  std::size_t events_late_dropped_ = 0;
};

}  // namespace sdc::checker
