// Scheduling-graph trace export: renders an AnalysisResult as a
// Perfetto-loadable trace (Fig. 3 as slices).
//
// Track model — one process per application:
//
//   pid N   process_name = "application_<ts>_<seq>"
//     tid 0         "milestones": one instant per Table-I event seen
//     tid 1..10     one track per app-level delay component, tid 1 + its
//                   catalog row, named after it and carrying its span
//     tid 100+k     one track per container ("container_..."), with the
//                   per-container component chain (acquisition ->
//                   localization -> queuing -> launching -> exec-idle)
//
// The spans are decompose.hpp's (`app_spans`, `container_spans`), so a
// slice's width is the reported delay, and the slice names are the
// delay-component catalog's (report.hpp).  Timestamps are corpus
// epoch-ms rebased to the earliest event across all applications (raw
// epoch-ms in microseconds would exceed the 2^53 double-precision window
// of JSON numbers).  A span without a start or a length, or with a
// negative length (cross-daemon clock skew — flagged by the anomaly
// detector, not silently clamped here), emits no slice.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <string_view>

#include "obs/trace_check.hpp"
#include "obs/trace_writer.hpp"
#include "sdchecker/sdchecker.hpp"

namespace sdc::checker {

/// The components whose slices an application's track must carry for
/// the trace to be considered complete (the `sdchecker trace --check`
/// contract): total, am, cf, cl, alloc, driver, executor.
[[nodiscard]] std::span<const std::string_view> required_app_slices();

/// The `sdchecker trace --check` verdict on `trace_json`, the trace of
/// `result`: the document is well formed, and each application carries
/// the slice of every required component that it can draw, that is
/// whose `Delays` value is present and non-negative.  An absent value
/// (its anchor events are not in the logs) or a negative one (clock
/// skew) draws no slice, so a damaged corpus fails no requirement; its
/// diagnostics report the damage.
[[nodiscard]] obs::TraceCheckResult check_scheduling_trace(
    std::string_view trace_json, const AnalysisResult& result);

/// Appends one process per application onto `writer`, pids assigned
/// sequentially from `first_pid`.  Returns the number of processes
/// (applications) appended.
std::size_t append_scheduling_trace(obs::TraceEventWriter& writer,
                                    const AnalysisResult& result,
                                    std::int64_t first_pid = 1);

/// Full trace document for one analysis (scheduling graph only).
[[nodiscard]] std::string scheduling_trace_json(const AnalysisResult& result);

}  // namespace sdc::checker
