// Deterministic, seeded corpus mutator — the fuzz harness that proves
// the mining pipeline degrades gracefully.
//
// Each mutation class models one way real clusters damage their logs:
// head/tail truncation (rotation tears, full disks), rotated segments,
// duplicated flushes, binary garbage, a daemon clock stepping mid-run,
// and two daemons interleaving one file.  Mutations are pure functions
// of (input bundle, class, seed), so every failure is replayable.  The
// self-check (`fuzz_corpus`) writes each mutant to a directory, analyzes
// it there once, as `sdchecker analyze` would, and judges that one
// analysis on every leg (see `FuzzCaseResult`).
#pragma once

#include <cstdint>
#include <filesystem>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "logging/diagnostics.hpp"
#include "logging/log_bundle.hpp"

namespace sdc::checker {

enum class MutationClass {
  /// No change — the control: analysis must be event-for-event identical.
  kIdentity = 0,
  /// Drop the head of one stream and tear the new first line mid-line.
  kTruncateHead,
  /// Drop the tail of one stream and cut the new last line mid-write
  /// (timestamp survives, remainder lost).
  kTruncateTail,
  /// Split one stream into rotated segments (`name.N` oldest ... `name`).
  kRotateSplit,
  /// Duplicate a contiguous block of one stream in place (re-flushed
  /// buffer): the seam jumps backwards in time.
  kDuplicateLines,
  /// Inject a burst of binary-garbage lines into one stream.
  kGarbageBytes,
  /// Step two daemons' clocks back (NTP corrections): the widest-span
  /// stream mid-run by several seconds, and one driver right after its
  /// first line by more than its span, so `driver` and `in-app` go
  /// negative.
  kClockSkew,
  /// Interleave a second stream's lines into the first, block-wise (two
  /// daemons writing one file).
  kInterleave,
};

inline constexpr std::size_t kMutationClassCount = 8;

std::string_view mutation_class_name(MutationClass cls);
std::optional<MutationClass> mutation_class_from_name(std::string_view name);
/// All classes, identity first.
std::vector<MutationClass> all_mutation_classes();

/// The diagnostic kind a destructive class is expected to surface
/// (nullopt for kIdentity, which must surface nothing new).
std::optional<logging::DiagnosticKind> expected_diagnostic(MutationClass cls);

/// Inverse of `expected_diagnostic`: the mutation classes expected to
/// surface `kind` (empty when no class models it).
std::vector<MutationClass> mutation_classes_for(logging::DiagnosticKind kind);

/// Why a diagnostic kind is runtime-only (no byte-level mutation of a
/// log bundle can surface it), or nullopt when the mutator covers it.
/// Every runtime-only kind must still be exercised by a dedicated test;
/// the reason names the mechanism and the tests.  The build fails unless
/// each kind has exactly one of a class that expects it and a reason (a
/// kind in neither set is a hole the fuzz harness can never exercise; a
/// kind in both, a stale reason).
constexpr std::optional<std::string_view> runtime_only_reason(
    logging::DiagnosticKind kind) {
  using logging::DiagnosticKind;
  if (kind == DiagnosticKind::kUnreadableFile) {
    return "filesystem failure; exercised by directory-ingest tests";
  }
  if (kind == DiagnosticKind::kUnparsableBurst) {
    return "no class is keyed to it — `garbage-bytes`' injected run also "
           "trips it; exercised by miner and follow tests";
  }
  if (kind == DiagnosticKind::kUnboundStream) {
    return "needs an unbound stream; exercised by incremental tests";
  }
  return std::nullopt;
}

/// Applies one mutation class.  Deterministic in (input, cls, seed).
[[nodiscard]] logging::LogBundle apply_mutation(
    const logging::LogBundle& input, MutationClass cls, std::uint64_t seed);

/// Outcome of analyzing one mutated corpus.  Every leg judges the one
/// serial `analyze_directory` of the mutant's directory.
struct FuzzCaseResult {
  MutationClass cls = MutationClass::kIdentity;
  /// An exception escaped the analyzer (always a failure).
  bool crashed = false;
  /// The exception's message, or the first error of the document or
  /// trace leg.
  std::string error;
  /// Occurrences of the class's expected diagnostic kind (total
  /// diagnostics for kIdentity).
  std::size_t expected_kind_count = 0;
  std::size_t events_total = 0;
  std::size_t anomalies = 0;
  logging::DiagnosticCounts diag_counts;
  /// Signal leg: the class's expected diagnostic kind is present; for
  /// kIdentity, `analysis_json` equals the original directory's byte for
  /// byte.
  bool signal = false;
  /// Document leg: `analysis_json` parses as JSON.
  bool document = false;
  /// Trace leg: the scheduling trace passes `check_scheduling_trace`,
  /// the `sdchecker trace --check` verdict.
  bool trace = false;
  /// Sharded leg: the directory analyzed on 4 workers in 64-byte chunks
  /// renders the same `analysis_json`.
  bool sharded = false;
  /// Follow leg: the mutant written live into a fresh directory (every
  /// file in slices cut mid-line, rotated families by logrotate renames)
  /// and tailed by a FollowService drains to the same `analysis_json`,
  /// and that directory ends with the mutant's names and bytes.
  bool follow = false;
  /// No crash, and every leg passed.
  bool ok = false;
};

/// Reads the bundle in `corpus_dir` and, per class, writes its mutant
/// once (to `out_dir/<class>`, kept; without `out_dir`, to a temporary
/// directory) and analyzes that directory once serially and once
/// sharded.  Analyzer exceptions on a mutant are captured in its result.
/// Throws when `corpus_dir` cannot be read or analyzed, or when
/// `out_dir/<class>` exists and is not empty.
std::vector<FuzzCaseResult> fuzz_corpus(
    const std::filesystem::path& corpus_dir, std::uint64_t seed,
    const std::vector<MutationClass>& classes,
    const std::filesystem::path& out_dir = {});

/// One fixed-width report line per case ("ok identity ...").
std::string render_fuzz_report(const std::vector<FuzzCaseResult>& results);

}  // namespace sdc::checker
