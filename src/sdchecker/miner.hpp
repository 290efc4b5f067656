// Third stage: mine a whole bundle (or directory) of log files.
//
// Per stream: parse every line, extract identified messages, classify the
// daemon kind from content (never from file names), synthesize the
// FIRST_LOG event for driver/executor streams (Table I messages 9/13 —
// "we use the first log message to mark the successful launching",
// §III-B), and bind stream-scoped events to the application/container id
// discovered anywhere in the stream.
//
// Robustness: the miner never throws on damaged input.  Rotated segments
// (`rm.log.1`, `rm.log.2`, ...) are reassembled into one logical stream
// (oldest suffix first, base last — logrotate order); binary garbage,
// mid-line truncation, unparsable bursts and backwards timestamp jumps
// beyond a skew budget are recorded as typed `logging::Diagnostic`
// records per stream instead of being silently folded into one
// "unparsed" number.
//
// Parallelism is two-level: streams are mined concurrently, and each
// large file is itself split into byte ranges so one dominant stream
// (the RM log — every application's state machine logs there) cannot
// serialize the run.  Reading is part of mining: each chunk task opens
// its files, `pread`s its ranges (logging/line_reader.hpp) and feeds every
// line straight to a `StreamCursor` (stream_cursor.hpp), so no serial
// read pass precedes the tasks and no byte outlives its block.  A stitch
// pass joins the chunk cursors in file order, which makes the sharded
// result — events *and* diagnostics — identical to a serial pass.
// Events are never sorted: a stream's events are its ranges' rows in
// file order, because grouping keeps each kind's earliest timestamp and
// per-application order comes from those timestamps (paper §III-C).
#pragma once

#include <cstddef>
#include <cstdint>
#include <filesystem>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "logging/diagnostics.hpp"
#include "logging/log_bundle.hpp"
#include "sdchecker/events.hpp"
#include "sdchecker/extractor.hpp"

namespace sdc {
class ThreadPool;
}  // namespace sdc

namespace sdc::checker {

struct MinerOptions {
  /// Worker threads for mining; 1 = serial.
  std::size_t threads = 1;
  /// Minimum bytes per chunk.  With more than one thread a file is split
  /// into up to 4*threads byte ranges but never smaller than this, and
  /// whole smaller files are grouped into tasks of about this size, so
  /// task bookkeeping cannot dominate short files.  0 disables both
  /// (one task per file).
  std::size_t shard_grain = std::size_t{1} << 20;
};

/// One stitched stream: its events, ids and health.
struct MinedStream {
  std::string name;
  StreamKind kind = StreamKind::kUnknown;
  /// Every range's rows in file order, then the synthesized FIRST_LOG
  /// row, with stream-scoped rows bound to the stream's ids — the same
  /// rows in the same order for any chunking.
  EventBatch events;
  std::size_t lines_total = 0;
  std::size_t lines_unparsed = 0;
  std::optional<ApplicationId> bound_app;
  std::optional<ContainerId> bound_container;
  /// Typed findings about this stream's health, in a deterministic order
  /// (independent of sharding).
  std::vector<logging::Diagnostic> diagnostics;
  /// Per-kind totals over `diagnostics`.
  logging::DiagnosticCounts diag_counts;
};

/// One corpus's mining work decomposed into schedulable pieces, planned
/// from file sizes alone.  `CorpusPipeline` (sdchecker.hpp) — what
/// `analyze` and fleet mode run — stitches each stream, handing its
/// events to grouping, the moment that stream's last range completes.
///
/// The plan lists the input once: a directory's regular files (symlinks
/// followed, dotfiles included) with their sizes and (dev, inode), or an
/// in-memory bundle's streams.  A directory is walked by one `readdir`
/// on the calling thread; its `fstatat` calls run in slices on `pool`
/// when one is given, and the plan is the same either way.  The plan is
/// flat: every file's name sits in one buffer and every file in one
/// vector, in reassembly order, and a stream is its base name plus its
/// run of that vector (its files in logrotate order).  Each file is cut
/// into ranges; a chunk is one range of a large file or a run of whole
/// small files.  A chunk reads its files itself: it opens the directory
/// once and `openat`s each file by name, through a descriptor that must
/// still hold the listed inode, up to the listed size.  A file unlinked,
/// replaced or unreadable by then — or a directory replaced since the
/// listing — is reported once per file as a kUnreadableFile record and
/// left out, one truncated since is mined as it now is, and bytes
/// appended since are not read.
///
/// Protocol: call `run_chunk` for every chunk (thread-safe across
/// distinct chunks), and `stitch` each stream exactly once after all of
/// its ranges ran.  An in-memory plan aliases the bundle's lines, which
/// must outlive it.  `run_chunk` maintains the `mine.lines` and
/// `mine.bytes` instruments; the constructor adds the planned bytes to
/// `mine.bytes_expected`.
class MinePlan {
 public:
  /// Lists `dir`, its `fstatat` calls on `pool` (nullptr = the calling
  /// thread).  Throws std::runtime_error if it cannot be listed.
  MinePlan(const std::filesystem::path& dir, const MinerOptions& options,
           ThreadPool* pool = nullptr);
  MinePlan(const logging::LogBundle& bundle, const MinerOptions& options);
  ~MinePlan();
  MinePlan(MinePlan&&) noexcept;
  MinePlan& operator=(MinePlan&&) noexcept;

  [[nodiscard]] std::size_t stream_count() const;
  [[nodiscard]] std::size_t chunk_count() const;
  /// The stream of each range chunk `chunk` mines, in the order it mines
  /// them.
  [[nodiscard]] std::span<const std::size_t> streams_of(
      std::size_t chunk) const;
  /// How many ranges stream `stream` (in logical-name order, rotated
  /// families reassembled) was split into.
  [[nodiscard]] std::size_t ranges_of(std::size_t stream) const;

  /// Reads and mines one chunk's ranges (mutates only their slots).
  void run_chunk(std::size_t chunk);
  /// Resolves stream-wide state and returns the stitched stream; consumes
  /// the stream's range outputs.  Appends one kUnreadableFile record per
  /// file of the stream that could not be read to `unreadable`, and
  /// returns nullopt when none could.
  [[nodiscard]] std::optional<MinedStream> stitch(
      std::size_t stream, std::vector<logging::Diagnostic>& unreadable);

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

/// Splits a rotated-segment file name: "rm.log.3" -> {"rm.log", 3}
/// (`base` aliases `name`).  Returns nullopt for names without an
/// all-digit final component.
struct RotationSuffix {
  std::string_view base;
  unsigned long index = 0;
};
[[nodiscard]] std::optional<RotationSuffix> split_rotation_suffix(
    std::string_view name);

/// One logical stream of a log directory: a rotated family (`rm.log`,
/// `rm.log.1`, `rm.log.2`, ...) or a lone file.
struct RotationFamily {
  /// The family's name, its members' names without a rotation suffix:
  /// a view into one of the names given to `rotation_families`.
  std::string_view base;
  /// Indices into the names given to `rotation_families`, in logrotate
  /// order: oldest (highest suffix) first, the unsuffixed live file
  /// last — the order the family's lines are reassembled in.  A run of
  /// the index vector all families of one call share.
  std::span<const std::size_t> members;

  /// The kRotationGap record batch analysis reports for this family, or
  /// nullopt for a lone base file; `names` are the names given to
  /// `rotation_families`.
  [[nodiscard]] std::optional<logging::Diagnostic> gap(
      std::span<const std::string_view> names) const;
};

/// The families of one `rotation_families` call.  Each family's members
/// are a run of one index vector held here, so no family allocates; the
/// families must not outlive this object, which is move-only.
class RotationFamilies {
 public:
  RotationFamilies() = default;
  RotationFamilies(const RotationFamilies&) = delete;
  RotationFamilies& operator=(const RotationFamilies&) = delete;
  RotationFamilies(RotationFamilies&&) noexcept = default;
  RotationFamilies& operator=(RotationFamilies&&) noexcept = default;

  [[nodiscard]] auto begin() const { return families_.begin(); }
  [[nodiscard]] auto end() const { return families_.end(); }
  [[nodiscard]] std::size_t size() const { return families_.size(); }

 private:
  friend RotationFamilies rotation_families(
      std::span<const std::string_view> names);

  /// Every name's index, family after family.
  std::vector<std::size_t> order_;
  std::vector<RotationFamily> families_;
};

/// Groups file names into logical streams, in base-name order.  The
/// batch reader reassembles rotated families with it, follow mode uses
/// it for its drain order and its snapshot's rotation records, and the
/// corpus mutator for the renames of its follow leg, so all agree on the
/// rule.
[[nodiscard]] RotationFamilies rotation_families(
    std::span<const std::string_view> names);

}  // namespace sdc::checker
