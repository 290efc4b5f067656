// SDchecker façade — the paper's tool as a library.
//
// Pipeline (paper §III): parse log4j lines -> extract Table-I messages ->
// group by global IDs -> build per-app scheduling graphs -> decompose
// scheduling delay into components -> detect anomalies -> aggregate.
//
//   sdc::checker::SdChecker checker({.threads = 4});
//   auto result = checker.analyze_directory("/var/log/hadoop");
//   std::cout << result.aggregate.render_text();
#pragma once

#include <atomic>
#include <exception>
#include <filesystem>
#include <map>
#include <memory>
#include <vector>

#include "common/mutex.hpp"
#include "common/thread_annotations.hpp"
#include "logging/log_bundle.hpp"
#include "sdchecker/anomaly.hpp"
#include "sdchecker/decompose.hpp"
#include "sdchecker/graph.hpp"
#include "sdchecker/grouping.hpp"
#include "sdchecker/miner.hpp"
#include "sdchecker/report.hpp"

namespace sdc {
class ThreadPool;
}  // namespace sdc

namespace sdc::checker {

struct AnalyzeOptions {
  /// Worker threads for mining (1 = serial); streams are split into
  /// chunks only when this is above 1.
  std::size_t threads = 1;
  /// Minimum bytes per mining chunk (see MinerOptions); 0 disables
  /// splitting files and grouping them.
  std::size_t shard_grain = MinerOptions{}.shard_grain;
  /// Workers for the per-application analysis (0 = one per hardware
  /// thread).  The analysis runs on one pool of
  /// `max(threads, effective_analyze_shards())` workers, and on the
  /// calling thread alone when that is 1.  Output is byte-identical
  /// either way — finalize restores the app-ID order.
  std::size_t analyze_shards = 1;

  /// `analyze_shards` with 0 resolved to the hardware concurrency.
  [[nodiscard]] std::size_t effective_analyze_shards() const;

  [[nodiscard]] MinerOptions miner_options() const {
    MinerOptions options;
    options.threads = threads;
    options.shard_grain = shard_grain;
    return options;
  }
};

struct AnalysisResult {
  /// Per-application grouped event timelines.
  std::map<ApplicationId, AppTimeline> timelines;
  /// Per-application delay decompositions.
  std::map<ApplicationId, Delays> delays;
  /// All findings across applications.
  std::vector<Anomaly> anomalies;
  /// Distribution summaries across applications.
  AggregateReport aggregate;
  /// Mining summary counters.
  std::size_t lines_total = 0;
  std::size_t lines_unparsed = 0;
  std::size_t events_total = 0;
  std::size_t events_unattributed = 0;
  /// Typed corpus-health findings accumulated through the whole mining
  /// stack (unreadable files, garbage, truncation, rotation, clock
  /// steps, unparsable bursts) — the analysis *completed*, these say what
  /// it had to tolerate.
  std::vector<logging::Diagnostic> diagnostics;
  /// Per-kind totals over `diagnostics`.
  logging::DiagnosticCounts diag_counts;

  /// Builds the Fig.-3-style scheduling graph for one application.
  [[nodiscard]] SchedulingGraph graph_for(const ApplicationId& app) const;

  /// Anomalies of one type.
  [[nodiscard]] std::vector<const Anomaly*> anomalies_of(
      AnomalyType type) const;

  /// Per-Table-I-message completeness: for each of the 14 identified
  /// messages, how many applications have no occurrence of it.  Non-zero
  /// counts on a real corpus usually mean a daemon's logs were not
  /// collected (the per-message footprint tells which one).
  struct Completeness {
    EventKind kind = EventKind::kAppSubmitted;
    std::size_t apps_missing = 0;
  };
  [[nodiscard]] std::vector<Completeness> completeness() const;

  /// Renders the non-zero completeness rows, followed by the per-stream
  /// diagnostics summary ("" when fully complete and clean).
  [[nodiscard]] std::string render_completeness() const;

  /// Renders one line per diagnostic record ("" when the corpus was
  /// clean).
  [[nodiscard]] std::string render_diagnostics() const;
};

class SdChecker {
 public:
  explicit SdChecker(AnalyzeOptions options = {}) : options_(options) {}

  [[nodiscard]] AnalysisResult analyze(const logging::LogBundle& bundle) const;
  /// Makes the pool first and lists `dir` with it: one `readdir` walk on
  /// the calling thread, the `fstatat` calls on the pool.  Its files are
  /// read inside the mining tasks (unreadable files become diagnostics).
  [[nodiscard]] AnalysisResult analyze_directory(
      const std::filesystem::path& dir) const;

 private:
  /// The pool of `max(threads, effective_analyze_shards())` workers, or
  /// null when that is 1.
  [[nodiscard]] std::unique_ptr<ThreadPool> make_pool() const;
  /// Runs one `CorpusPipeline` over `plan`: its chunks on `pool` (or the
  /// calling thread), then finish on the same pool.
  AnalysisResult run(MinePlan plan, std::unique_ptr<ThreadPool> pool) const;

  AnalyzeOptions options_;
};

/// An application whose full timeline was evicted under the streaming
/// bounded-memory policy: only the decomposed delay row and the anomaly
/// findings computed at retirement survive.  Cheap (no per-event state),
/// so a long-running follow service can hold millions of them.
struct RetiredApp {
  Delays delays;
  std::vector<Anomaly> anomalies;
};

/// Retired rows in application-ID order; the finalize merge interleaves
/// them with the live timelines so aggregates, anomalies and the delays
/// map come out exactly as if every timeline were still resident.
using RetiredTable = std::map<ApplicationId, RetiredApp>;

/// Runs the decomposition + anomaly + aggregation stages over grouped
/// timelines (shared by `CorpusPipeline` and the incremental analyzer).
/// `apps` is folded into app-ID order, each app is decomposed and
/// anomaly-checked on `pool` (nullptr = the calling thread), and the
/// ordered merge then fills aggregates/delays/anomalies — byte-identical
/// for any table layout and any pool.  `retired` rows (apps disjoint
/// from `apps`) are folded into the delays/aggregate/anomaly outputs at
/// their app-ID position; only `AnalysisResult::timelines` (and the
/// reports derived from it) is limited to the still-resident
/// applications.
[[nodiscard]] AnalysisResult finalize_analysis(AppTable apps, ThreadPool* pool,
                                               const RetiredTable& retired =
                                                   {});

/// One corpus's analysis as schedulable pieces: the pipeline
/// `SdChecker::analyze*` runs for one corpus and fleet mode (fleet.hpp)
/// runs for many on one shared pool.  Mining is a `MinePlan`; the call
/// that completes a stream's last range also stitches the stream and
/// applies each of its rows once to the corpus's one application table
/// (`apply_event`), so events are neither sorted nor merged into a
/// corpus-wide list — `KindFirstTs::record` keeps the minimum, so
/// streams apply in any order.  `finish` then finalizes once.
///
/// Protocol: call `run_chunk` once per chunk (thread-safe across
/// chunks), then `finish` once: after every call returned, or right
/// after the call that returned true, since every other call has done
/// its work by then.
class CorpusPipeline {
 public:
  explicit CorpusPipeline(MinePlan plan);

  CorpusPipeline(const CorpusPipeline&) = delete;
  CorpusPipeline& operator=(const CorpusPipeline&) = delete;

  [[nodiscard]] std::size_t chunk_count() const { return plan_.chunk_count(); }

  /// Reads and mines one chunk; for each stream whose last range it
  /// mined, stitches and groups the stream.  Returns true for the call
  /// that completed the corpus's last stream.  A failure is kept for
  /// `finish` to rethrow, and later calls skip their work.
  bool run_chunk(std::size_t chunk);

  /// Finalizes the application table on `pool` (nullptr = the calling
  /// thread) and assembles the diagnostics: unreadable files and every
  /// stream's findings, in the severity sort.  Rethrows the first
  /// failure of a `run_chunk` call.
  [[nodiscard]] AnalysisResult finish(ThreadPool* pool);

 private:
  struct StreamMeta {
    /// False when none of the stream's files could be read.
    bool mined = false;
    /// kUnreadableFile records of the stream's files.
    std::vector<logging::Diagnostic> unreadable;
    std::size_t lines_total = 0;
    std::size_t lines_unparsed = 0;
    std::size_t events = 0;
    std::vector<logging::Diagnostic> diagnostics;
    logging::DiagnosticCounts diag_counts;
  };
  void stitch_and_group(std::size_t stream);

  MinePlan plan_;
  /// Slot s is written only by the call that stitched stream s.
  std::vector<StreamMeta> streams_;
  /// Held while one stitched stream's rows are applied.
  Mutex mu_;
  AppTable apps_ SDC_GUARDED_BY(mu_);
  /// Rows that carried no application id.
  std::size_t unattributed_ SDC_GUARDED_BY(mu_) = 0;
  /// Countdowns of ranges to "stream fully mined" and of streams to
  /// "corpus fully stitched".  The acq_rel fetch_sub chains publish every
  /// range's output to whichever call observes the last decrement.
  std::unique_ptr<std::atomic<std::size_t>[]> ranges_left_;
  std::atomic<std::size_t> streams_left_;
  /// Set by the first failing call, which alone writes `error_`.
  std::atomic<bool> failed_{false};
  std::exception_ptr error_;
};

}  // namespace sdc::checker
