#include "sdchecker/trace_export.hpp"

#include <algorithm>
#include <limits>
#include <utility>
#include <vector>

namespace sdc::checker {
namespace {

constexpr std::string_view kRequiredAppSlices[] = {
    "total", "am", "cf", "cl", "alloc", "driver", "executor",
};

/// One pending slice: name, absolute start in corpus epoch-ms, length
/// in ms.
struct PendingSlice {
  std::string_view name;
  std::int64_t start_ms = 0;
  std::int64_t length_ms = 0;
};

/// Appends the slice when the span has a start and a non-negative length
/// (a negative one is clock skew; the anomaly detector reports those — a
/// trace slice cannot render them).
void push_slice(std::vector<PendingSlice>& out, std::string_view name,
                const DelaySpan& span) {
  if (!span.start || !span.length || *span.length < 0) return;
  out.push_back({name, *span.start, *span.length});
}

std::uint64_t rebase_us(std::int64_t ts_ms, std::int64_t base_ms) {
  const std::int64_t rebased = ts_ms - base_ms;
  return rebased <= 0 ? 0 : static_cast<std::uint64_t>(rebased) * 1000;
}

/// Earliest timestamp anywhere in the corpus — the trace's time origin.
std::int64_t corpus_base_ms(const AnalysisResult& result) {
  std::int64_t base = std::numeric_limits<std::int64_t>::max();
  for (const auto& [app, timeline] : result.timelines) {
    for (const auto& [kind, ts] : timeline.first_ts) base = std::min(base, ts);
    for (const auto& [id, container] : timeline.containers) {
      for (const auto& [kind, ts] : container.first_ts) {
        base = std::min(base, ts);
      }
    }
  }
  return base == std::numeric_limits<std::int64_t>::max() ? 0 : base;
}

/// Emits `slices` onto one (pid, tid) track in ascending start order with
/// its own thread_name row.
void emit_track(obs::TraceEventWriter& writer, std::int64_t pid,
                std::int64_t tid, std::string_view track_name,
                std::vector<PendingSlice> slices, std::int64_t base_ms) {
  if (slices.empty()) return;
  writer.thread_name(pid, tid, track_name);
  std::stable_sort(slices.begin(), slices.end(),
                   [](const PendingSlice& a, const PendingSlice& b) {
                     return a.start_ms < b.start_ms;
                   });
  for (const PendingSlice& slice : slices) {
    writer.complete(pid, tid, slice.name, rebase_us(slice.start_ms, base_ms),
                    static_cast<std::uint64_t>(slice.length_ms) * 1000,
                    "scheduling");
  }
}

void emit_app(obs::TraceEventWriter& writer, std::int64_t pid,
              const AppTimeline& timeline, std::int64_t base_ms) {
  writer.process_name(pid, timeline.app.str());

  // Track 0: one instant per Table-I milestone the logs actually carried.
  {
    std::vector<std::pair<std::int64_t, std::string_view>> marks;
    for (const auto& [kind, ts] : timeline.first_ts) {
      marks.emplace_back(ts, event_name(kind));
    }
    if (!marks.empty()) {
      writer.thread_name(pid, 0, "milestones");
      std::stable_sort(marks.begin(), marks.end(),
                       [](const auto& a, const auto& b) {
                         return a.first < b.first;
                       });
      for (const auto& [ts, name] : marks) {
        writer.instant(pid, 0, name, rebase_us(ts, base_ms), "milestone");
      }
    }
  }

  // One track per app-level component, tid 1 + its catalog row.
  const auto specs = delay_component_specs();
  const AppSpans spans = app_spans(timeline);
  for (std::size_t row = 0; row < spans.size(); ++row) {
    std::vector<PendingSlice> slices;
    push_slice(slices, specs[row].name, spans[row]);
    emit_track(writer, pid, static_cast<std::int64_t>(row) + 1,
               specs[row].name, std::move(slices), base_ms);
  }

  // Per-container tracks: the component chain in causal order.
  const auto container_rows = specs.subspan(kAppComponents);
  std::int64_t container_tid = 100;
  for (const auto& [id, container] : timeline.containers) {
    const ContainerSpans chain = container_spans(timeline, id, container);
    std::vector<PendingSlice> slices;
    for (std::size_t i = 0; i < chain.size(); ++i) {
      push_slice(slices, container_rows[i].name, chain[i]);
    }
    emit_track(writer, pid, container_tid++, id.str(), std::move(slices),
               base_ms);
  }
}

}  // namespace

std::span<const std::string_view> required_app_slices() {
  return kRequiredAppSlices;
}

obs::TraceCheckResult check_scheduling_trace(std::string_view trace_json,
                                             const AnalysisResult& result) {
  std::vector<const DelayComponentSpec*> required_specs;
  for (const DelayComponentSpec& spec :
       delay_component_specs().first(kAppComponents)) {
    if (std::ranges::find(kRequiredAppSlices, spec.name) !=
        std::end(kRequiredAppSlices)) {
      required_specs.push_back(&spec);
    }
  }
  obs::TraceCheckOptions options;
  for (const auto& [app, delays] : result.delays) {
    std::vector<std::string>& required = options.required_slices_of[app.str()];
    for (const DelayComponentSpec* spec : required_specs) {
      const std::optional<std::int64_t>& value = delays.*spec->app;
      if (value && *value >= 0) required.emplace_back(spec->name);
    }
  }
  return obs::check_trace_json(trace_json, options);
}

std::size_t append_scheduling_trace(obs::TraceEventWriter& writer,
                                    const AnalysisResult& result,
                                    std::int64_t first_pid) {
  const std::int64_t base_ms = corpus_base_ms(result);
  std::int64_t pid = first_pid;
  for (const auto& [app, timeline] : result.timelines) {
    emit_app(writer, pid++, timeline, base_ms);
  }
  return static_cast<std::size_t>(pid - first_pid);
}

std::string scheduling_trace_json(const AnalysisResult& result) {
  obs::TraceEventWriter writer;
  append_scheduling_trace(writer, result);
  return writer.finish();
}

}  // namespace sdc::checker
