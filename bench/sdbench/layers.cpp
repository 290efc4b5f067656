#include "layers.hpp"

#include <algorithm>
#include <string_view>
#include <utility>

#include "obs/trace_check.hpp"
#include "obs/trace_writer.hpp"
#include "sdbench.hpp"

namespace sdbench {

namespace {

using sdc::obs::SpanRecord;

/// Span name -> layer metric: the library's own spans, then the
/// bench-side spans around public calls.
constexpr std::pair<std::string_view, std::string_view> kSpanMetrics[] = {
    {"mine.total", "sdchecker.mine_s"},
    {"mine.chunk", "sdchecker.mine.chunk_busy_s"},
    {"mine.stitch", "sdchecker.mine.stitch_s"},
    {"mine.merge", "sdchecker.mine.merge_s"},
    {"analyze.group", "sdchecker.group_s"},
    {"analyze.finalize", "sdchecker.finalize_s"},
    {"analyze.merge", "sdchecker.finalize.merge_s"},
    {"incremental.snapshot", "sdchecker.incremental.snapshot_s"},
    {"sdchecker.analysis_json", "sdchecker.export_s"},
    {"sdchecker.summary_json", "sdchecker.export_s"},
    {"sdchecker.analyze_fleet", "sdchecker.fleet_s"},
    {"sdchecker.histogram_drift", "sdchecker.compare_s"},
    {"sdchecker.follow.poll_once", "sdchecker.follow.poll_s"},
};

/// Registry counter -> layer metric (delta per op).
constexpr std::pair<std::string_view, std::string_view> kCounterMetrics[] = {
    {"mine.lines", "sdchecker.mine.lines"},
    {"mine.events", "sdchecker.mine.events"},
    {"mine.streams", "sdchecker.mine.streams"},
    {"analyze.apps", "sdchecker.apps"},
    {"pool.tasks", "common.pool.tasks"},
};

using Interval = std::pair<std::uint64_t, std::uint64_t>;

/// Length of the union of `intervals` (microseconds).
std::uint64_t union_us(std::vector<Interval> intervals) {
  std::sort(intervals.begin(), intervals.end());
  std::uint64_t covered = 0;
  std::uint64_t reach = 0;
  for (const auto& [from, to] : intervals) {
    const std::uint64_t lo = std::max(from, reach);
    if (to > lo) covered += to - lo;
    reach = std::max(reach, to);
  }
  return covered;
}

/// Self time of every span named `name`: its duration minus the part of
/// it covered by other spans on the same track.
double self_seconds(const std::vector<SpanRecord>& spans,
                    std::string_view name) {
  double total = 0;
  for (const SpanRecord& span : spans) {
    if (span.name != name) continue;
    const std::uint64_t end = span.start_us + span.dur_us;
    std::vector<Interval> children;
    for (const SpanRecord& child : spans) {
      if (&child == &span || child.track != span.track) continue;
      if (child.start_us >= span.start_us &&
          child.start_us + child.dur_us <= end) {
        children.emplace_back(child.start_us, child.start_us + child.dur_us);
      }
    }
    const std::uint64_t covered = union_us(std::move(children));
    total += static_cast<double>(span.dur_us - std::min(covered, span.dur_us)) *
             1e-6;
  }
  return total;
}

double counter_delta(const sdc::obs::MetricsSnapshot& before,
                     const sdc::obs::MetricsSnapshot& after,
                     std::string_view name) {
  const std::uint64_t a = after.counter(name);
  const std::uint64_t b = before.counter(name);
  return a > b ? static_cast<double>(a - b) : 0.0;
}

}  // namespace

void LayerTrace::begin(bool traced) {
  traced_ = traced;
  if (!traced_) return;
  before_ = sdc::obs::MetricsRegistry::global().snapshot();
  sdc::obs::Tracer::global().clear();
  sdc::obs::Tracer::global().set_enabled(true);
}

void LayerTrace::end(double op_seconds, bool comparable) {
  if (!traced_) {
    if (comparable) untraced_s_.push_back(op_seconds);
    return;
  }
  sdc::obs::Tracer& tracer = sdc::obs::Tracer::global();
  tracer.set_enabled(false);
  std::vector<SpanRecord> spans = tracer.snapshot();
  tracer.clear();
  const sdc::obs::MetricsSnapshot after =
      sdc::obs::MetricsRegistry::global().snapshot();

  // A layer's time is what its spans cover on each track, summed over
  // tracks: a pool waiter that helps with queued work runs it inside its
  // own span, so nested spans of one layer must not count twice.
  std::map<std::string, std::map<std::uint32_t, std::vector<Interval>>> covered;
  for (const SpanRecord& span : spans) {
    for (const auto& [span_name, metric] : kSpanMetrics) {
      if (span.name == span_name) {
        covered[std::string(metric)][span.track].emplace_back(
            span.start_us, span.start_us + span.dur_us);
      }
    }
  }
  std::map<std::string, double> sums;
  for (auto& [metric, tracks] : covered) {
    for (auto& [track, intervals] : tracks) {
      sums[metric] +=
          static_cast<double>(union_us(std::move(intervals))) * 1e-6;
    }
  }
  for (const SpanRecord& span : spans) {
    if (span.name == "sdchecker.analyze_directory") {
      sums["logging.read_s"] = self_seconds(spans, span.name);
      break;
    }
  }
  for (const auto& [counter, metric] : kCounterMetrics) {
    const double delta = counter_delta(before_, after, counter);
    if (delta > 0) sums[std::string(metric)] = delta;
  }
  const double lines = counter_delta(before_, after, "mine.lines");
  if (lines > 0) {
    sums["sdchecker.mine.prefilter_skip_ratio"] =
        counter_delta(before_, after, "mine.scan.prefilter_skipped") / lines;
    sums["sdchecker.mine.event_yield"] =
        counter_delta(before_, after, "mine.events") / lines;
  }
  const double tasks = counter_delta(before_, after, "pool.tasks");
  if (tasks > 0) {
    sums["common.pool.help_ratio"] =
        counter_delta(before_, after, "pool.help_while_wait") / tasks;
  }
  for (const auto& [metric, value] : sums) per_op_[metric].push_back(value);

  if (comparable) {
    traced_s_.push_back(op_seconds);
    last_ = std::move(spans);
  }
  traced_ = false;
}

std::map<std::string, double> LayerTrace::values() const {
  std::map<std::string, double> out;
  for (const auto& [metric, samples] : per_op_) {
    out[metric] = percentile(samples, 50);
  }
  return out;
}

double LayerTrace::overhead_ratio() const {
  if (traced_s_.empty() || untraced_s_.empty()) return 0;
  const double base = percentile(untraced_s_, 50);
  return base > 0 ? percentile(traced_s_, 50) / base : 0;
}

bool LayerTrace::write_trace(const std::string& process,
                             const std::filesystem::path& out,
                             const std::vector<std::string>& required,
                             std::string* error) const {
  if (last_.empty()) {
    *error = "no traced op was recorded";
    return false;
  }
  const std::string document = sdc::obs::spans_trace_json(last_, process);
  sdc::obs::TraceCheckOptions options;
  options.required_slices = required;
  options.required_process_prefix = process;
  const sdc::obs::TraceCheckResult check =
      sdc::obs::check_trace_json(document, options);
  if (!check.ok) {
    *error = "trace check failed: " +
             (check.errors.empty() ? std::string("?") : check.errors.front());
    return false;
  }
  write_text(out, document);
  return true;
}

double histogram_median(
    const sdc::obs::MetricsSnapshot::HistogramValue& histogram) {
  if (histogram.count == 0) return 0;
  const double half = static_cast<double>(histogram.count) / 2.0;
  double seen = 0;
  for (std::size_t i = 0; i < histogram.bucket_counts.size(); ++i) {
    const double in_bucket = static_cast<double>(histogram.bucket_counts[i]);
    if (seen + in_bucket >= half && in_bucket > 0) {
      const double lo = i == 0 ? 0.0 : histogram.upper_edges[i - 1];
      const double hi = i < histogram.upper_edges.size()
                            ? histogram.upper_edges[i]
                            : lo;  // overflow bucket: report its lower edge
      return lo + (hi - lo) * (half - seen) / in_bucket;
    }
    seen += in_bucket;
  }
  return histogram.upper_edges.empty() ? 0 : histogram.upper_edges.back();
}

}  // namespace sdbench
