// Fleet mode: analyze many corpora (one directory of logs per cluster /
// day / experiment run) in a single pipelined pass, then gate the
// combined delay distributions against a committed baseline.
//
// The scheduling problem fleet mode solves: running `analyze` per corpus
// serializes at two points — every corpus waits for its slowest mining
// chunk before grouping starts (a barrier), and corpora run one after
// another (no overlap).  Fleet mode instead runs *everything* on one
// ThreadPool with two-level sharding (corpus × chunk for mining, corpus
// × app-shard for grouping) and no per-corpus barriers: the moment a
// stream's last chunk is mined, that stream is stitched and its events
// are folded into the corpus's sharded grouping tables while other
// chunks — of this corpus and of others — are still mining.  The last
// stream triggers finalization, which fans out per-app decomposition on
// the same pool (nested `parallel_for` is safe: waiters help drain the
// queue instead of blocking — see thread_pool.hpp).
//
// Determinism: per-stream event batches are applied to grouping tables
// in completion order, which is racy — but `KindFirstTs::record` keeps
// the *minimum* timestamp and counts are additive, so event application
// commutes, and `finalize_analysis` re-orders apps deterministically.
// Each corpus's `analysis_json` is therefore byte-identical to a
// standalone `sdchecker analyze --json` of the same directory (the fleet
// parity test pins this down).
#pragma once

#include <cstddef>
#include <cstdint>
#include <filesystem>
#include <optional>
#include <string>
#include <vector>

#include "sdchecker/compare.hpp"

namespace sdc::checker {

struct FleetOptions {
  /// Worker threads for the shared pool; 0 = hardware concurrency.
  std::size_t threads = 0;
  /// Grouping shards per corpus; 0 = derived from `threads` (capped at 8
  /// — shards beyond the thread count only add table-merge work).
  std::size_t shards_per_corpus = 0;
  /// Forwarded to MinerOptions (see miner.hpp).
  std::size_t shard_grain = 8192;
};

/// One corpus's outcome.  `error` is empty on success; on failure every
/// other field except `name`/`dir` is default.
struct CorpusResult {
  std::string name;
  std::filesystem::path dir;
  std::string error;
  std::size_t apps = 0;
  std::size_t events = 0;
  std::size_t lines = 0;
  std::size_t diagnostics = 0;
  /// The full per-corpus artifact, byte-identical to what a standalone
  /// `analyze --json` of the same directory writes.
  std::string analysis_json;
  /// Per-delay-component fixed-bucket histograms (see compare.hpp).
  std::vector<ComponentHistogram> components;
};

struct FleetResult {
  /// Input order (the `analyze_fleet(root)` overload discovers corpora
  /// in name order).
  std::vector<CorpusResult> corpora;
  std::size_t threads = 0;
  std::size_t shards_per_corpus = 0;
  /// Per-component histograms summed across every successful corpus —
  /// what the regression gate compares against a baseline.
  std::vector<ComponentHistogram> components;

  [[nodiscard]] std::size_t failed() const;

  /// The fleet summary artifact: {"fleet":{...}, "bucket_edges_ms":[...],
  /// "components":[...], "corpora":[...]}.  A later run can be gated
  /// against this document via `load_fleet_baseline`.
  [[nodiscard]] std::string summary_json() const;
};

/// The immediate subdirectories of `root`, sorted by name — one corpus
/// per subdirectory.  Throws std::runtime_error when `root` is not a
/// directory.
[[nodiscard]] std::vector<std::filesystem::path> discover_corpora(
    const std::filesystem::path& root);

/// Analyzes every corpus on one shared pool (pipelined; see the file
/// comment).  A corpus that cannot be read becomes a CorpusResult with
/// `error` set — the fleet never aborts on one bad corpus.
[[nodiscard]] FleetResult analyze_fleet(
    const std::vector<std::filesystem::path>& corpora,
    const FleetOptions& options = {});
[[nodiscard]] FleetResult analyze_fleet(const std::filesystem::path& root,
                                        const FleetOptions& options = {});

/// Reads the fleet-wide `components` of a summary JSON written by
/// `FleetResult::summary_json`.  Returns nullopt and fills `error` on
/// unreadable or malformed input.
[[nodiscard]] std::optional<std::vector<ComponentHistogram>>
load_fleet_baseline(const std::filesystem::path& file, std::string* error);

}  // namespace sdc::checker
