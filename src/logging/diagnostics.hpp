// Structured diagnostics for the log-ingestion and mining path.
//
// Real RM/NM/driver/executor logs arrive truncated, rotated, interleaved,
// clock-skewed and occasionally garbled.  Instead of throwing on the
// first oddity (or silently producing wrong numbers), every stage of the
// pipeline accumulates typed `Diagnostic` records with per-kind counts,
// so an analysis can *complete* on a damaged corpus while stating exactly
// what was dropped or suspect.  The records flow LogBundle/MinePlan ->
// CorpusPipeline -> AnalysisResult -> report/JSON/CLI exit status.
#pragma once

#include <array>
#include <cstddef>
#include <filesystem>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace sdc::logging {

enum class DiagnosticKind {
  /// A log file could not be opened or read; its stream was skipped.
  kUnreadableFile = 0,
  /// A line is binary garbage (NUL bytes or mostly non-printable).
  kBinaryGarbage,
  /// A line was cut mid-write: a valid timestamp prefix with a malformed
  /// remainder, or a stream that begins/ends mid-line (torn rotation).
  kTruncatedLine,
  /// A stream was reassembled from rotated segments (name, name.1, ...).
  kRotationGap,
  /// Within one stream, a timestamp jumped backwards by more than the
  /// skew budget — the daemon's clock stepped (NTP) or writes interleaved.
  kTimestampRegression,
  /// A burst of consecutive unparsable lines (multi-line stack traces are
  /// short; long runs mean a foreign or corrupted section).
  kUnparsableBurst,
  /// A streaming-ingestion stream produced events but never revealed an
  /// application/container id, and its parked-event buffer overflowed the
  /// cap (`kParkedEventsCap`) — events were dropped to bound daemon memory.
  kUnboundStream,
};

/// Number of DiagnosticKind values (for count arrays).
inline constexpr std::size_t kDiagnosticKindCount = 7;

/// Everything said about one kind, one row per kind in enum order
/// (`diagnostic_kinds()`).  The build checks the rows; sdlint renders the
/// kind table of docs/INTERNALS.md from them.
struct DiagnosticKindSpec {
  DiagnosticKind kind;
  /// Short stable name ("unreadable-file", "binary-garbage", ...).
  std::string_view name;
  /// How strongly the kind implies data loss: lost input (0) > damaged
  /// input (1) > suspect-but-kept input (2).
  std::size_t severity;
  /// What raises the kind (markdown, for the doc table).
  std::string_view trigger;
};

/// The kind rows, indexed by `DiagnosticKind`.
std::span<const DiagnosticKindSpec> diagnostic_kinds();

/// The kind's `DiagnosticKindSpec::name`.
std::string_view diagnostic_kind_name(DiagnosticKind kind);

/// The kind's `DiagnosticKindSpec::severity`.
std::size_t diagnostic_severity(DiagnosticKind kind);

/// One finding about one stream (or the bundle, for file-level issues).
struct Diagnostic {
  DiagnosticKind kind = DiagnosticKind::kUnreadableFile;
  /// Stream (file) name the finding is about.
  std::string stream;
  /// 1-based first line involved; 0 when not line-scoped.
  std::size_t line_no = 0;
  /// Lines / occurrences covered by this record (>= 1).
  std::size_t count = 1;
  std::string detail;
};

/// The kUnreadableFile record of the file at `path`, read as stream
/// `stream`.  Batch mining and follow both report an unreadable file
/// with this one record, so their outputs agree byte for byte.
[[nodiscard]] Diagnostic unreadable_file(std::string stream,
                                         const std::filesystem::path& path);

/// Per-kind occurrence totals (summed `Diagnostic::count`).
struct DiagnosticCounts {
  std::array<std::size_t, kDiagnosticKindCount> by_kind{};

  void bump(DiagnosticKind kind, std::size_t n = 1) {
    by_kind[static_cast<std::size_t>(kind)] += n;
  }
  [[nodiscard]] std::size_t of(DiagnosticKind kind) const {
    return by_kind[static_cast<std::size_t>(kind)];
  }
  [[nodiscard]] std::size_t total() const {
    std::size_t n = 0;
    for (const std::size_t c : by_kind) n += c;
    return n;
  }
  DiagnosticCounts& operator+=(const DiagnosticCounts& other) {
    for (std::size_t i = 0; i < by_kind.size(); ++i) {
      by_kind[i] += other.by_kind[i];
    }
    return *this;
  }
  /// Folds a record's count into the totals.
  void add(const Diagnostic& diagnostic) {
    bump(diagnostic.kind, diagnostic.count);
  }
};

/// Recomputes totals from a list of records.
[[nodiscard]] DiagnosticCounts count_diagnostics(
    const std::vector<Diagnostic>& diagnostics);

/// Report ordering: severity, then kind, then stream, then line.  Used
/// by the analysis layer so rendered reports and exported JSON list the
/// most serious corpus damage first, in a stable order independent of
/// mining thread count or chunk schedule.  (Mining-layer results keep
/// discovery order — the sharded/serial equivalence tests depend on it.)
[[nodiscard]] bool diagnostic_order_less(const Diagnostic& a,
                                         const Diagnostic& b);

/// Stable-sorts records into report order.
void sort_diagnostics(std::vector<Diagnostic>& diagnostics);

/// Renders one record as a single human-readable line (no trailing '\n').
[[nodiscard]] std::string render_diagnostic(const Diagnostic& diagnostic);

}  // namespace sdc::logging
