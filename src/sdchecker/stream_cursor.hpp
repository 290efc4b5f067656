// Per-stream line state, shared by batch mining and follow mode.
//
// What SDchecker learns about a log stream from its lines alone (paper
// §III-B/C): which daemon wrote it (the first classifiable logger class),
// its first parsed timestamp (the FIRST_LOG event of driver and executor
// logs, Table I messages 9/13) and the application/container id it
// binds to.  The cursor also keeps the stream's health tallies — binary
// garbage, cut lines, unparsable runs, backwards timestamp jumps — and
// renders them as typed diagnostics.
//
// One cursor type serves both pipelines.  The batch miner drives one
// cursor per chunk of a stream and joins the chunk cursors in file
// order; the incremental analyzer keeps one cursor per stream and
// renders it at snapshot time.  A joined cursor equals one cursor fed
// the same lines, so follow's drained snapshot reports exactly what
// batch analysis of the same files reports.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/ids.hpp"
#include "logging/diagnostics.hpp"
#include "sdchecker/events.hpp"
#include "sdchecker/extractor.hpp"
#include "sdchecker/parsed_line.hpp"

namespace sdc::checker {

/// A within-stream timestamp going backwards by more than this budget is
/// a kTimestampRegression (NTP step, interleaved foreign lines).
/// Smaller jitter is normal for buffered appenders and ignored.
inline constexpr std::int64_t kSkewBudgetMs = 1000;

/// Consecutive unparsable lines from which a run is a kUnparsableBurst.
/// Stack traces are a few lines; long runs mean a corrupt or foreign
/// section.
inline constexpr std::size_t kUnparsableBurstMin = 4;

class StreamCursor {
 public:
  /// A cursor over the lines after line `base_line` (lines are 1-based;
  /// a whole stream, or its first chunk, starts at base 0).
  explicit StreamCursor(std::size_t base_line = 0) noexcept
      : base_(base_line), line_no_(base_line) {}

  /// Consumes the stream's next line.  Returns it parsed (the views
  /// point into `line`), or nullopt when it is unparsable.
  std::optional<ParsedLine> feed(std::string_view line);

  /// Appends `next`, the cursor over the lines right after this one's
  /// (built with `base_line == line_no()`).  Unparsable runs and
  /// backwards jumps across the seam come out as one cursor fed every
  /// line would record them.
  void join(const StreamCursor& next);

  /// Appends the stream's diagnostics as it stands now, its last line
  /// being the last line fed, in a fixed order: garbage summary,
  /// cut-line summary, head tear, bursts by position, tail tear,
  /// regression summary.  Meaningful for whole-stream cursors (base 0).
  void render(const std::string& stream,
              std::vector<logging::Diagnostic>& out) const;

  [[nodiscard]] std::size_t line_no() const noexcept { return line_no_; }
  [[nodiscard]] std::size_t lines_unparsed() const noexcept {
    return unparsed_;
  }
  [[nodiscard]] StreamKind kind() const noexcept { return kind_; }
  [[nodiscard]] const std::optional<std::int64_t>& first_parsed_ts()
      const noexcept {
    return first_ts_;
  }
  [[nodiscard]] const std::optional<ContainerId>& first_container()
      const noexcept {
    return first_container_;
  }
  /// The application the stream binds to: the first application id
  /// seen, else the first container's (driver and executor logs do not
  /// carry ids on every line — Fig. 2).
  [[nodiscard]] std::optional<ApplicationId> bound_app() const;
  /// FIRST_LOG kind for driver and executor logs, whose first parsed
  /// line marks the launch; nullopt for other streams.
  [[nodiscard]] std::optional<EventKind> first_log_kind() const;

 private:
  /// A maximal run of consecutive unparsable lines.  `first_plain` /
  /// `last_plain` record whether its boundary lines were plain failures
  /// (not garbage, not timestamp-cut): the head- and tail-tear rules
  /// fire only on plain boundaries, so one phenomenon is not reported
  /// twice.
  struct Run {
    std::size_t start = 0;
    std::size_t len = 0;
    bool first_plain = false;
    bool last_plain = false;
  };

  /// Occurrence count and first line of one kind of finding.
  struct Tally {
    std::size_t count = 0;
    std::size_t first_line = 0;
    void note(std::size_t line) {
      if (count++ == 0) first_line = line;
    }
    void join(const Tally& next) {
      if (count == 0) first_line = next.first_line;
      count += next.count;
    }
  };

  void note_unparsed(std::string_view line);
  void note_regression(std::size_t line, std::int64_t jump_ms);
  /// Whether a run is still needed: the open run, a burst, or the run
  /// at the cursor's first line (a head tear, or half of a run across a
  /// join seam).  Shorter closed runs are dropped, so a long-running
  /// follow cursor stays bounded.
  [[nodiscard]] bool retained(const Run& run) const {
    return run.len >= kUnparsableBurstMin || run.start == base_ + 1 ||
           run.start + run.len == line_no_ + 1;
  }

  std::size_t base_;
  std::size_t line_no_;
  std::size_t unparsed_ = 0;
  /// Retained runs in line order; the last one is open while it ends at
  /// `line_no_`.
  std::vector<Run> runs_;
  Tally garbage_;
  Tally cut_;
  Tally regression_;
  std::int64_t regression_max_ms_ = 0;
  StreamKind kind_ = StreamKind::kUnknown;
  std::optional<ApplicationId> first_app_;
  std::optional<ContainerId> first_container_;
  std::optional<std::int64_t> first_ts_;
  std::size_t first_parsed_line_ = 0;
  std::optional<std::int64_t> last_ts_;
};

}  // namespace sdc::checker
