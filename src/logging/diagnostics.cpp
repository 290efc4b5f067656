#include "logging/diagnostics.hpp"

#include <algorithm>
#include <cstdio>
#include <iterator>
#include <utility>

namespace sdc::logging {

namespace {

constexpr DiagnosticKindSpec kDiagnosticKinds[] = {
    {DiagnosticKind::kUnreadableFile, "unreadable-file", 0,
     "directory read skipped an unreadable file"},
    {DiagnosticKind::kBinaryGarbage, "binary-garbage", 1,
     "line contains NUL or is mostly non-printable"},
    {DiagnosticKind::kTruncatedLine, "truncated-line", 1,
     "timestamp intact but the rest malformed (mid-write cut), or a stream "
     "begins/ends mid-line"},
    {DiagnosticKind::kRotationGap, "rotation-gap", 2,
     "`base.log.N` segments reassembled (oldest = highest suffix first, "
     "logrotate order)"},
    {DiagnosticKind::kTimestampRegression, "timestamp-regression", 2,
     "within-stream timestamp jumps backwards beyond `kSkewBudgetMs` "
     "(1000 ms)"},
    {DiagnosticKind::kUnparsableBurst, "unparsable-burst", 1,
     "one record per run of ≥ `kUnparsableBurstMin` (4) consecutive "
     "unparsable lines"},
    {DiagnosticKind::kUnboundStream, "unbound-stream", 1,
     "a stream never bound to an application id and overflowed "
     "`kParkedEventsCap` (65536) parked events; overflowing events are "
     "dropped and counted"},
};

// The rules each row must keep; a broken one fails the build here,
// naming the rule.
constexpr bool kind_rows_valid() {
  if (std::size(kDiagnosticKinds) != kDiagnosticKindCount) {
    throw "kDiagnosticKinds needs one row per DiagnosticKind";
  }
  for (std::size_t i = 0; i < kDiagnosticKindCount; ++i) {
    const DiagnosticKindSpec& row = kDiagnosticKinds[i];
    if (static_cast<std::size_t>(row.kind) != i) {
      throw "kDiagnosticKinds rows must follow DiagnosticKind order";
    }
    if (row.name.empty()) throw "a diagnostic kind needs a name";
    for (std::size_t j = 0; j < i; ++j) {
      if (kDiagnosticKinds[j].name == row.name) {
        throw "two diagnostic kinds share one name";
      }
    }
    if (row.severity > 2) {
      throw "severity is 0 (lost), 1 (damaged) or 2 (suspect)";
    }
  }
  return true;
}
static_assert(kind_rows_valid());

}  // namespace

std::span<const DiagnosticKindSpec> diagnostic_kinds() {
  return kDiagnosticKinds;
}

std::string_view diagnostic_kind_name(DiagnosticKind kind) {
  return kDiagnosticKinds[static_cast<std::size_t>(kind)].name;
}

std::size_t diagnostic_severity(DiagnosticKind kind) {
  return kDiagnosticKinds[static_cast<std::size_t>(kind)].severity;
}

Diagnostic unreadable_file(std::string stream,
                           const std::filesystem::path& path) {
  return Diagnostic{DiagnosticKind::kUnreadableFile, std::move(stream), 0, 1,
                    "LogView: cannot read " + path.string()};
}

DiagnosticCounts count_diagnostics(const std::vector<Diagnostic>& diagnostics) {
  DiagnosticCounts counts;
  for (const Diagnostic& diagnostic : diagnostics) counts.add(diagnostic);
  return counts;
}

bool diagnostic_order_less(const Diagnostic& a, const Diagnostic& b) {
  const std::size_t sev_a = diagnostic_severity(a.kind);
  const std::size_t sev_b = diagnostic_severity(b.kind);
  if (sev_a != sev_b) return sev_a < sev_b;
  if (a.kind != b.kind) return a.kind < b.kind;
  if (a.stream != b.stream) return a.stream < b.stream;
  return a.line_no < b.line_no;
}

void sort_diagnostics(std::vector<Diagnostic>& diagnostics) {
  std::stable_sort(diagnostics.begin(), diagnostics.end(),
                   diagnostic_order_less);
}

std::string render_diagnostic(const Diagnostic& diagnostic) {
  std::string out = "[";
  out += diagnostic_kind_name(diagnostic.kind);
  out += "] ";
  out += diagnostic.stream.empty() ? "<bundle>" : diagnostic.stream;
  if (diagnostic.line_no > 0) {
    char buf[48];
    std::snprintf(buf, sizeof(buf), ":%zu", diagnostic.line_no);
    out += buf;
  }
  if (diagnostic.count > 1) {
    char buf[48];
    std::snprintf(buf, sizeof(buf), " (x%zu)", diagnostic.count);
    out += buf;
  }
  if (!diagnostic.detail.empty()) {
    out += ": ";
    out += diagnostic.detail;
  }
  return out;
}

}  // namespace sdc::logging
