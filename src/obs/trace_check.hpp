// Structural validator for emitted trace-event JSON.
//
// The repo's JSON layer is writer-only by design (the tool consumes
// logs); this file carries the one consumer we do need — a schema check
// over our *own* trace output, used by the round-trip tests, the
// `sdchecker trace --check` flag and the CI trace job.  It verifies:
//
//   - the document parses as JSON at all (balanced, escaped, typed);
//   - top level is an object with a "traceEvents" array;
//   - every event has name/ph/pid/tid, and ts for X/i phases;
//   - complete ("X") slices have dur >= 0;
//   - per (pid, tid) track, slice timestamps are monotonically
//     non-decreasing in file order;
//   - optionally, every process whose process_name matches a prefix
//     carries a required set of slice names (the Table-I delay
//     components for application tracks), and named processes carry
//     sets of their own.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace sdc::obs {

struct TraceCheckOptions {
  /// Slice names every matching process must contain at least once.
  std::vector<std::string> required_slices;
  /// Processes the requirement applies to: those whose process_name
  /// starts with this prefix ("" disables the requirement).
  std::string required_process_prefix;
  /// Slice names required of one process, keyed by its exact
  /// process_name; a named process missing from the trace fails too.
  std::map<std::string, std::vector<std::string>, std::less<>>
      required_slices_of;
};

struct TraceCheckResult {
  bool ok = true;
  std::vector<std::string> errors;
  std::size_t events = 0;
  std::size_t processes = 0;

  void fail(std::string message) {
    ok = false;
    errors.push_back(std::move(message));
  }
};

/// Validates one trace document.  Never throws; malformed input becomes
/// errors in the result.
[[nodiscard]] TraceCheckResult check_trace_json(
    std::string_view text, const TraceCheckOptions& options = {});

}  // namespace sdc::obs
