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
// stream is itself split into chunks at line boundaries so one dominant
// stream (the RM log — every application's state machine logs there)
// cannot serialize the run.  Each chunk drives a `StreamCursor`
// (stream_cursor.hpp) over its lines; a stitch pass joins the chunk
// cursors in chunk order, which makes the sharded result — events *and*
// diagnostics — identical to a serial pass.  Each chunk emits a sorted
// event run; runs are combined by k-way merge instead of a global sort.
#pragma once

#include <cstddef>
#include <cstdint>
#include <filesystem>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "logging/diagnostics.hpp"
#include "logging/log_bundle.hpp"
#include "logging/log_view.hpp"
#include "sdchecker/events.hpp"
#include "sdchecker/extractor.hpp"

namespace sdc::checker {

struct MinerOptions {
  /// Worker threads for mining; 1 = serial.
  std::size_t threads = 1;
  /// Minimum lines per intra-stream chunk.  Streams are split into up to
  /// ~4*threads chunks but never smaller than this, so chunk bookkeeping
  /// cannot dominate short streams.  0 disables intra-stream sharding
  /// (one chunk per stream — the pre-sharding behaviour).
  std::size_t shard_grain = 8192;
};

/// Per-stream mining outcome (diagnostics and tests).
struct MinedStream {
  std::string name;
  StreamKind kind = StreamKind::kUnknown;
  /// Events sorted by (ts, line, kind), in columnar storage (see
  /// EventBatch).  `LogMiner::mine` moves these into
  /// `MineResult::events`; they stay populated when `mine_stream` is
  /// called directly.
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

struct MineResult {
  /// All events, ids resolved, sorted by (ts, stream, line), in columnar
  /// storage sharing one interned stream-name pool.
  EventBatch events;
  std::vector<MinedStream> streams;
  std::size_t lines_total = 0;
  std::size_t lines_unparsed = 0;
  /// Bundle-level findings (unreadable files) followed by every stream's
  /// findings in stream order.
  std::vector<logging::Diagnostic> diagnostics;
  logging::DiagnosticCounts diag_counts;
};

/// One corpus's mining work decomposed into schedulable pieces: the
/// stream/chunk structure `LogMiner::mine` runs start-to-finish, exposed
/// so `CorpusPipeline` (sdchecker.hpp) — what `analyze` and fleet mode
/// run — can stitch each stream, handing its events to grouping, the
/// moment that stream's last chunk completes, instead of waiting for the
/// whole corpus.  Both paths share this one pipeline, so the
/// sharded/serial byte-identity proof covers them both.
///
/// Protocol: construct over a live BundleView (the view must outlive the
/// plan — chunks alias its lines), call `run_chunk` for every chunk
/// (thread-safe across distinct chunks), and `stitch` each stream exactly
/// once after all of its chunks ran.  `run_chunk` maintains the
/// `mine.lines` / `mine.scan.prefilter_skipped` instruments; the
/// constructor stamps `mine.lines_expected` and the scan-backend counter
/// exactly as one `mine()` call would.
class MinePlan {
 public:
  MinePlan(const logging::BundleView& view, const MinerOptions& options);
  ~MinePlan();
  MinePlan(MinePlan&&) noexcept;
  MinePlan& operator=(MinePlan&&) noexcept;

  [[nodiscard]] std::size_t stream_count() const;
  [[nodiscard]] std::size_t chunk_count() const;
  /// The stream chunk `chunk` belongs to.
  [[nodiscard]] std::size_t stream_of(std::size_t chunk) const;
  /// How many chunks stream `stream` was split into.
  [[nodiscard]] std::size_t chunks_of(std::size_t stream) const;
  /// Streams are in logical-name order (rotated families reassembled).
  [[nodiscard]] const std::string& stream_name(std::size_t stream) const;
  [[nodiscard]] std::size_t stream_lines(std::size_t stream) const;
  /// The interned stream-name pool every produced batch shares.
  [[nodiscard]] const std::shared_ptr<const StringInterner>& interner() const;

  /// Mines one chunk (mutates only that chunk's slot).
  void run_chunk(std::size_t chunk);
  /// Resolves stream-wide state and returns the stitched stream; consumes
  /// the stream's chunk outputs and pre-diagnostics.
  [[nodiscard]] MinedStream stitch(std::size_t stream);

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

/// Mines a whole corpus into one sorted event list (k-way merged from
/// the per-stream runs).  `SdChecker` does not need the merged list — it
/// runs `CorpusPipeline` — so this serves the coverage lint and tests of
/// the mining layer.
class LogMiner {
 public:
  explicit LogMiner(MinerOptions options = {}) : options_(options) {}

  [[nodiscard]] MineResult mine(const logging::LogBundle& bundle) const;
  /// Zero-copy path: mines mmap-backed (or adapted) line views directly.
  [[nodiscard]] MineResult mine(const logging::BundleView& view) const;
  /// Mines a directory through the mmap-backed view layer.  Unreadable
  /// files become kUnreadableFile diagnostics instead of throwing.
  [[nodiscard]] MineResult mine_directory(
      const std::filesystem::path& dir) const;

  /// Mines one stream in isolation (exposed for unit tests).
  [[nodiscard]] MinedStream mine_stream(
      const std::string& name, const std::vector<std::string>& lines) const;
  [[nodiscard]] MinedStream mine_stream(
      const std::string& name,
      std::span<const std::string_view> lines) const;

 private:
  MinerOptions options_;
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
  std::string base;
  /// Indices into the names given to `rotation_families`, in logrotate
  /// order: oldest (highest suffix) first, the unsuffixed live file
  /// last — the order the family's lines are reassembled in.
  std::vector<std::size_t> members;
  /// The kRotationGap record batch analysis reports for a family that
  /// is more than a lone base file.
  std::optional<logging::Diagnostic> gap;
};

/// Groups file names into logical streams, in base-name order.  The
/// batch reader reassembles rotated families with it, and follow mode
/// uses it for its drain order and its snapshot's rotation records, so
/// both agree on the rule.
[[nodiscard]] std::vector<RotationFamily> rotation_families(
    std::span<const std::string_view> names);

}  // namespace sdc::checker
