// Per-layer accounting for the traced run.
//
// The benchmark wraps a bench-side span around each public call it makes
// (sdchecker.analyze_directory, sdchecker.analysis_json, ...); the library
// adds its own spans underneath (mine.total, analyze.finalize, ...).  One
// "op" is one timed run (batch) or one poll cycle (follow-live).  For each
// traced op this class sums span durations per layer, takes metric-
// registry counter deltas, and keeps the op's wall time; the reported
// value of a layer metric is its median over the ops that exercised it,
// and 0 for a layer the workload never reaches.
#pragma once

#include <filesystem>
#include <map>
#include <string>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/tracer.hpp"

namespace sdbench {

class LayerTrace {
 public:
  /// Starts an op; tracing is on for it only when `traced`.
  void begin(bool traced);
  /// Ends the op.  `comparable` ops (same kind of work traced or not)
  /// feed the tracing-overhead ratio and the kept Perfetto trace.
  void end(double op_seconds, bool comparable);

  /// Layer metric name -> median per-op value (see the file comment).
  [[nodiscard]] std::map<std::string, double> values() const;
  /// Median traced op time over median untraced op time (0 when either
  /// side has no comparable op).
  [[nodiscard]] double overhead_ratio() const;

  /// Renders the last comparable traced op as a Perfetto document,
  /// validates it with obs::check_trace_json (every `required` span must
  /// be present) and writes it to `out`.  False with `error` set when the
  /// trace is missing or invalid.
  bool write_trace(const std::string& process, const std::filesystem::path& out,
                   const std::vector<std::string>& required,
                   std::string* error) const;

 private:
  bool traced_ = false;
  sdc::obs::MetricsSnapshot before_;
  std::map<std::string, std::vector<double>> per_op_;
  std::vector<double> traced_s_;
  std::vector<double> untraced_s_;
  std::vector<sdc::obs::SpanRecord> last_;
};

/// Median of a registry histogram, interpolated linearly within its
/// bucket (in the histogram's unit; 0 when empty).
[[nodiscard]] double histogram_median(
    const sdc::obs::MetricsSnapshot::HistogramValue& histogram);

}  // namespace sdbench
