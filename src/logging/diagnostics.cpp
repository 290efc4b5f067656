#include "logging/diagnostics.hpp"

#include <algorithm>
#include <cstdio>
#include <utility>

namespace sdc::logging {

std::string_view diagnostic_kind_name(DiagnosticKind kind) {
  switch (kind) {
    case DiagnosticKind::kUnreadableFile:
      return "unreadable-file";
    case DiagnosticKind::kBinaryGarbage:
      return "binary-garbage";
    case DiagnosticKind::kTruncatedLine:
      return "truncated-line";
    case DiagnosticKind::kRotationGap:
      return "rotation-gap";
    case DiagnosticKind::kTimestampRegression:
      return "timestamp-regression";
    case DiagnosticKind::kUnparsableBurst:
      return "unparsable-burst";
    case DiagnosticKind::kUnboundStream:
      return "unbound-stream";
  }
  return "?";
}

std::size_t diagnostic_severity(DiagnosticKind kind) {
  switch (kind) {
    // Input that never reached the parser at all.
    case DiagnosticKind::kUnreadableFile:
      return 0;
    // Input that reached the parser damaged (lines dropped or cut), or
    // parsed events dropped under the bounded-memory cap.
    case DiagnosticKind::kBinaryGarbage:
    case DiagnosticKind::kTruncatedLine:
    case DiagnosticKind::kUnparsableBurst:
    case DiagnosticKind::kUnboundStream:
      return 1;
    // Input that was kept but whose timeline is suspect.
    case DiagnosticKind::kRotationGap:
    case DiagnosticKind::kTimestampRegression:
      return 2;
  }
  return 3;
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
