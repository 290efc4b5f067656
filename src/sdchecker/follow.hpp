// Follow-mode streaming service: live tail ingestion of a log directory.
//
// The batch pipeline collects a finished corpus and mines it once; this
// service watches a directory the cluster is still writing — the
// `tail -F` analogue of `SdChecker::analyze_directory`.  A poll costs
// what changed, not every file seen so far: it walks the directory once
// (a regular file already tracked under its inode costs no syscall),
// `fstatat`s each active tail, and reads only the tails that grew —
// through an fd whose `(dev, inode)` must be the tail's, so a name
// renamed and recreated between the walk and the read is never read as
// the old file.  Rename-based rotation (`app.log` -> `app.log.1` plus a
// fresh `app.log`) is followed by inode, so no byte is read twice or
// skipped.  Complete lines go to an `IncrementalAnalyzer`.  Memory stays
// bounded: applications whose terminal transition has been mined are
// retired after a quiet grace (timeline freed, decomposed row kept),
// streams that never bind an application id park at most
// `MinerOptions::parked_events_cap` events, and a fully read driver or
// executor log of a retired application is parked — skipped by the
// per-poll check and re-checked by one sweep before any poll may report
// quiescence, and again in `finish()`.
//
// Parity contract: once the writers stop and the service has drained
// (`quiescent()`, then `finish()`), `snapshot()` returns an
// `AnalysisResult` whose `analysis_json` is byte-identical to running
// the batch `SdChecker::analyze_directory` over the same directory —
// including the rotation-reassembly and unreadable-file diagnostics the
// batch reader would emit.  A mid-run snapshot describes the directory
// as of the last poll.
#pragma once

#include <dirent.h>

#include <cstdint>
#include <filesystem>
#include <functional>
#include <map>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "sdchecker/incremental.hpp"
#include "sdchecker/sdchecker.hpp"

namespace sdc::checker {

struct FollowOptions {
  /// Only the parked-event cap applies; threads/shard_grain are ignored
  /// — tailing is serial.
  MinerOptions miner = {};
  /// Shards for the snapshot finalize stage (same meaning as
  /// `AnalyzeOptions::analyze_shards`; snapshots are byte-identical
  /// either way).
  std::size_t analyze_shards = 1;
  /// Retire terminal applications (free their timelines) once they have
  /// been quiet for this many polls.  The grace absorbs out-of-order
  /// stragglers across streams; events arriving after retirement are
  /// dropped and counted.
  std::uint64_t retire_quiet_polls = 2;
  /// Master switch for retirement (off = keep every timeline resident,
  /// as the batch pipeline does).
  bool retire = true;
};

/// One poll's delta, for pacing and watch output.
struct PollStats {
  std::size_t bytes_read = 0;
  std::size_t lines_fed = 0;
  std::size_t new_streams = 0;
  std::size_t rotations = 0;
  std::size_t apps_retired = 0;
  /// Tails whose size this poll examined; parked tails are not counted.
  std::size_t tails_checked = 0;
  /// Tails whose name held another file, or none, by the time this poll
  /// checked or read it: a rename raced the poll, and the next directory
  /// walk resolves it.
  std::size_t renamed_mid_poll = 0;
};

class FollowService {
 public:
  explicit FollowService(std::filesystem::path dir, FollowOptions options = {});

  /// One ingestion cycle: walk the directory, read the bytes appended
  /// to tails that grew, feed complete lines, retire quiet terminal
  /// applications and park their fully read logs.
  PollStats poll_once();

  /// True when the previous poll observed no appended bytes, no new
  /// streams, no rotation handoffs and no rename racing it, parked tails
  /// included — the corpus is (momentarily) drained.
  [[nodiscard]] bool quiescent() const noexcept { return quiescent_; }

  /// Reads what parked tails gained since the last poll, then flushes
  /// buffered final partial lines (a live file's last line before its
  /// newline arrives).  Call once after the final poll; matches the
  /// batch reader's treatment of a file that ends without a trailing
  /// newline.  Idempotent only if no further polls run.
  void finish();

  /// Full analysis of everything ingested so far (see the parity
  /// contract above).  Its rotation records come from the tail table,
  /// i.e. the directory as of the last poll.  O(apps); safe to call
  /// between polls.
  [[nodiscard]] AnalysisResult snapshot() const;

  /// One newline-free ndjson watch record: poll/quiescence counters, the
  /// full `analysis_json` document and a metrics-registry snapshot.
  [[nodiscard]] std::string watch_record() const;

  [[nodiscard]] const IncrementalAnalyzer& analyzer() const noexcept {
    return analyzer_;
  }
  [[nodiscard]] std::uint64_t polls() const noexcept { return polls_; }
  [[nodiscard]] std::uint64_t bytes_read() const noexcept {
    return bytes_read_;
  }
  [[nodiscard]] std::size_t streams_seen() const noexcept {
    return streams_seen_;
  }
  [[nodiscard]] std::uint64_t rotations() const noexcept { return rotations_; }

  /// Test seam — not a user option.  `after_scan` runs between a poll's
  /// directory walk and its reads (to race a rename against them);
  /// `fail_open` makes the open of every file name it accepts fail as
  /// a permission error would.
  struct TestSeam {
    std::function<void()> after_scan = {};
    std::function<bool(std::string_view name)> fail_open = {};
  };
  void set_test_seam(TestSeam seam) { seam_ = std::move(seam); }

 private:
  /// One physical file being tailed, keyed by (dev, inode) so the tail
  /// survives the rotation rename.  `logical` is the rotation base name
  /// — the stream the analyzer sees.
  struct Tail {
    std::uint64_t key = 0;
    std::string physical;
    std::string logical;
    std::uintmax_t offset = 0;
    /// File size at the last check.
    std::uintmax_t size = 0;
    std::string partial;
    /// The last poll whose directory walk found this file.
    std::uint64_t seen_poll = 0;
    /// False once the file carries a rotation suffix: the segment is
    /// frozen, its final partial line (if any) has been flushed.
    bool is_base = true;
    /// Skipped by the per-poll check (see the header comment).
    bool parked = false;
  };

  /// Walks the directory: registers new files, follows renames, drops
  /// tails whose file left.
  void scan(DIR* dir, PollStats& stats);
  /// `fstatat`s `tail` by name and appends it to `grown_` when it has
  /// bytes to read or a rotated segment's partial line to flush.
  void check_tail(int dir_fd, Tail& tail, PollStats& stats);
  /// Reads every tail in `grown_`, in `rotation_families` order.
  void drain_grown(int dir_fd, PollStats& stats);
  /// Reads the bytes appended to one tail through an identity-checked
  /// fd and feeds complete lines.  A name that no longer holds the
  /// tail's inode is skipped; the next walk resolves the rename.
  void drain_tail(int dir_fd, Tail& tail, PollStats& stats);
  /// Feeds the complete lines of `bytes`, just read from `tail`.
  void feed_bytes(Tail& tail, std::string_view bytes, PollStats& stats);
  /// Re-checks and reads every parked tail.
  void sweep_parked(int dir_fd, PollStats& stats);
  void flush_partial(Tail& tail);

  std::filesystem::path dir_;
  FollowOptions options_;
  IncrementalAnalyzer analyzer_;
  /// (dev << 32 ^ ino) -> tail.  Good enough as a key: collisions would
  /// need two filesystems in one log directory.
  std::unordered_map<std::uint64_t, Tail> tails_;
  /// This poll's tails to read; reused across polls.
  std::vector<Tail*> grown_;
  /// One read buffer, reused for every tail.
  std::string buffer_;
  /// Unreadable-file diagnostics, deduped per stream: first error text
  /// wins, `count` accumulates repeats.
  std::map<std::string, logging::Diagnostic> unreadable_;
  std::uint64_t polls_ = 0;
  std::uint64_t bytes_read_ = 0;
  std::size_t streams_seen_ = 0;
  std::uint64_t rotations_ = 0;
  bool quiescent_ = false;
  TestSeam seam_;
};

/// Schema check for one line of the `--watch` ndjson stream.  Verifies
/// the line parses as a JSON object carrying numeric "poll", boolean
/// "quiescent", an "analysis" object with a "summary" object, and a
/// "metrics" object with a "counters" object.  Never throws.
struct WatchCheckResult {
  bool ok = true;
  std::vector<std::string> errors;
  void fail(std::string message);
};
[[nodiscard]] WatchCheckResult check_watch_json(std::string_view line);

}  // namespace sdc::checker
