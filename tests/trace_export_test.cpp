// Scheduling-graph trace export: the Perfetto document built from an
// AnalysisResult must carry every delay component as a slice, validate
// against the trace schema, rebase timestamps, and skip unrenderable
// (missing-anchor or negative) spans.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "obs/json_parse.hpp"
#include "obs/trace_check.hpp"
#include "sdchecker/grouping.hpp"
#include "sdchecker/sdchecker.hpp"
#include "sdchecker/trace_export.hpp"

namespace sdc::checker {
namespace {

constexpr std::int64_t kT0 = 1'499'100'000'000;

/// A fully-populated application: AM plus two staggered workers, every
/// Table-I anchor present, all component spans strictly positive.
AppTimeline full_timeline(std::int32_t app_seq) {
  AppTimeline timeline;
  timeline.app = ApplicationId{kT0, app_seq};
  const std::int64_t base = kT0 + app_seq * 10'000;

  const auto app_event = [&](EventKind kind, std::int64_t offset_ms) {
    timeline.first_ts[kind] = base + offset_ms;
  };
  app_event(EventKind::kAppSubmitted, 0);
  app_event(EventKind::kAppAccepted, 10);
  app_event(EventKind::kAttemptRegistered, 200);
  app_event(EventKind::kDriverFirstLog, 300);
  app_event(EventKind::kDriverRegister, 400);
  app_event(EventKind::kStartAllo, 450);
  app_event(EventKind::kEndAllo, 500);

  const auto add_container = [&](std::int64_t seq, std::int64_t offset_ms,
                                 bool worker) {
    const ContainerId id{timeline.app, 1, seq};
    ContainerTimeline& container = timeline.containers[id];
    container.id = id;
    const auto event = [&](EventKind kind, std::int64_t at_ms) {
      container.first_ts[kind] = base + offset_ms + at_ms;
    };
    event(EventKind::kContainerAllocated, 0);
    event(EventKind::kContainerAcquired, 20);
    event(EventKind::kNmLocalizing, 40);
    event(EventKind::kNmScheduled, 60);
    event(EventKind::kNmRunning, 100);
    if (worker) {
      event(EventKind::kExecutorFirstLog, 200);
      event(EventKind::kExecutorFirstTask, 300);
    }
  };
  add_container(1, 50, false);
  add_container(2, 500, true);
  add_container(3, 600, true);
  return timeline;
}

AnalysisResult analyze_timelines(std::vector<AppTimeline> timelines) {
  AppTable apps;
  for (AppTimeline& t : timelines) {
    const ApplicationId app = t.app;
    apps[app] = std::move(t);
  }
  return finalize_analysis(std::move(apps), nullptr);
}

/// Every complete slice of a trace document: (tid, name) -> dur (µs).
std::map<std::pair<std::int64_t, std::string>, std::int64_t> slice_durations(
    const std::string& trace) {
  std::map<std::pair<std::int64_t, std::string>, std::int64_t> out;
  obs::JsonValue doc;
  std::string error;
  if (!obs::parse_json(trace, doc, error) || doc.object() == nullptr) {
    ADD_FAILURE() << "unparsable trace: " << error;
    return out;
  }
  const obs::JsonValue* events = obs::json_find(*doc.object(), "traceEvents");
  if (events == nullptr || events->array() == nullptr) {
    ADD_FAILURE() << "no traceEvents array";
    return out;
  }
  for (const obs::JsonValue& event : *events->array()) {
    const obs::JsonObject& fields = *event.object();
    const obs::JsonValue* phase = obs::json_find(fields, "ph");
    if (phase == nullptr || *phase->string() != "X") continue;
    const auto tid =
        static_cast<std::int64_t>(*obs::json_find(fields, "tid")->number());
    const std::string& name = *obs::json_find(fields, "name")->string();
    const double dur = *obs::json_find(fields, "dur")->number();
    const bool fresh =
        out.emplace(std::pair(tid, name), static_cast<std::int64_t>(dur)).second;
    EXPECT_TRUE(fresh) << "two slices named " << name << " on tid " << tid;
  }
  return out;
}

std::size_t count_occurrences(const std::string& text,
                              const std::string& needle) {
  std::size_t n = 0;
  for (std::size_t pos = text.find(needle); pos != std::string::npos;
       pos = text.find(needle, pos + needle.size())) {
    ++n;
  }
  return n;
}

TEST(TraceExport, CatalogCoversAggregateMetricsBothWays) {
  const AnalysisResult result = analyze_timelines({full_timeline(1)});
  const auto metrics = result.aggregate.metrics();
  const auto specs = delay_component_specs();
  ASSERT_EQ(metrics.size(), specs.size());
  for (std::size_t i = 0; i < specs.size(); ++i) {
    EXPECT_EQ(metrics[i].first, specs[i].name) << "catalog row " << i;
  }
}

TEST(TraceExport, FullTimelineCarriesAllComponentSlices) {
  const AnalysisResult result = analyze_timelines({full_timeline(1)});
  const std::string trace = scheduling_trace_json(result);

  obs::TraceCheckOptions options;
  options.required_process_prefix = "application_";
  for (const DelayComponentSpec& spec : delay_component_specs()) {
    options.required_slices.emplace_back(spec.name);
  }
  const obs::TraceCheckResult check = obs::check_trace_json(trace, options);
  EXPECT_TRUE(check.ok) << (check.errors.empty() ? "" : check.errors[0]);
  EXPECT_EQ(check.processes, 1u);
}

TEST(TraceExport, RequiredAppSlicesSatisfyCliCheckContract) {
  const AnalysisResult result = analyze_timelines({full_timeline(1)});
  const std::string trace = scheduling_trace_json(result);

  obs::TraceCheckOptions options;
  options.required_process_prefix = "application_";
  for (const std::string_view slice : required_app_slices()) {
    options.required_slices.emplace_back(slice);
  }
  EXPECT_EQ(options.required_slices.size(), 7u);
  const obs::TraceCheckResult check = obs::check_trace_json(trace, options);
  EXPECT_TRUE(check.ok) << (check.errors.empty() ? "" : check.errors[0]);
}

TEST(TraceExport, CheckRequiresOnlyTheComponentsAnApplicationDraws) {
  // App 2 lost SUBMITTED and its allocation is clock-skewed: total, am,
  // cf, cl and alloc are absent or negative, so they draw no slice and
  // the check does not require them.  The blanket rule of seven slices
  // per application fails the same trace.
  AppTimeline damaged = full_timeline(2);
  damaged.first_ts.erase(EventKind::kAppSubmitted);
  damaged.first_ts[EventKind::kEndAllo] =
      damaged.first_ts[EventKind::kStartAllo] - 100;
  const AnalysisResult result =
      analyze_timelines({full_timeline(1), std::move(damaged)});
  const std::string trace = scheduling_trace_json(result);
  const obs::TraceCheckResult check = check_scheduling_trace(trace, result);
  EXPECT_TRUE(check.ok) << (check.errors.empty() ? "" : check.errors[0]);
  EXPECT_EQ(check.processes, 2u);

  obs::TraceCheckOptions blanket;
  blanket.required_process_prefix = "application_";
  for (const std::string_view slice : required_app_slices()) {
    blanket.required_slices.emplace_back(slice);
  }
  EXPECT_EQ(obs::check_trace_json(trace, blanket).errors.size(), 5u);

  // A component the application can draw must be drawn: the trace of an
  // app without its allocation fails against an analysis that has it,
  // and a trace without the app fails too.
  AppTimeline no_alloc = full_timeline(1);
  no_alloc.first_ts.erase(EventKind::kStartAllo);
  const std::string short_trace =
      scheduling_trace_json(analyze_timelines({std::move(no_alloc)}));
  const AnalysisResult whole = analyze_timelines({full_timeline(1)});
  const obs::TraceCheckResult missing =
      check_scheduling_trace(short_trace, whole);
  EXPECT_FALSE(missing.ok);
  ASSERT_EQ(missing.errors.size(), 1u);
  EXPECT_NE(missing.errors[0].find("missing required slice \"alloc\""),
            std::string::npos)
      << missing.errors[0];
  const obs::TraceCheckResult absent = check_scheduling_trace(
      scheduling_trace_json(analyze_timelines({})), whole);
  EXPECT_FALSE(absent.ok);
}

TEST(TraceExport, OneProcessPerApplication) {
  const AnalysisResult result =
      analyze_timelines({full_timeline(1), full_timeline(2), full_timeline(3)});
  obs::TraceEventWriter writer;
  const std::size_t apps = append_scheduling_trace(writer, result);
  EXPECT_EQ(apps, 3u);
  const obs::TraceCheckResult check = obs::check_trace_json(writer.finish());
  EXPECT_TRUE(check.ok);
  EXPECT_EQ(check.processes, 3u);
}

TEST(TraceExport, TimestampsAreRebasedToCorpusStart) {
  const AnalysisResult result = analyze_timelines({full_timeline(1)});
  const std::string trace = scheduling_trace_json(result);
  // The earliest event (SUBMITTED) must land at ts 0, and no epoch-scale
  // timestamp value may survive rebasing.  (The epoch number itself still
  // appears inside application/container id strings — only "ts" fields
  // matter here.)
  EXPECT_NE(trace.find("\"ts\":0"), std::string::npos);
  // Catches both non-rebased forms: epoch-ms, and epoch-us (whose decimal
  // rendering starts with the same digits).
  EXPECT_EQ(trace.find("\"ts\":" + std::to_string(kT0)), std::string::npos);
}

TEST(TraceExport, MilestoneInstantsPresent) {
  const AnalysisResult result = analyze_timelines({full_timeline(1)});
  const std::string trace = scheduling_trace_json(result);
  EXPECT_NE(trace.find("\"milestones\""), std::string::npos);
  EXPECT_NE(trace.find("\"SUBMITTED\""), std::string::npos);
  EXPECT_NE(trace.find("\"ph\":\"i\""), std::string::npos);
}

TEST(TraceExport, PerContainerChainsOnContainerTracks) {
  const AnalysisResult result = analyze_timelines({full_timeline(1)});
  const std::string trace = scheduling_trace_json(result);
  // Three container tracks (AM + 2 workers) named by container id.
  EXPECT_EQ(count_occurrences(trace, "\"container_"), 3u);
  // exec-idle only exists for the two workers; the AM has none.
  EXPECT_EQ(count_occurrences(trace, "\"name\":\"exec-idle\""), 2u);
  // acquisition appears once per container.
  EXPECT_EQ(count_occurrences(trace, "\"name\":\"acquisition\""), 3u);
}

TEST(TraceExport, MissingAnchorsEmitNoSlice) {
  AppTimeline timeline = full_timeline(1);
  timeline.first_ts.erase(EventKind::kStartAllo);
  timeline.first_ts.erase(EventKind::kEndAllo);
  const AnalysisResult result = analyze_timelines({std::move(timeline)});
  const std::string trace = scheduling_trace_json(result);
  EXPECT_EQ(trace.find("\"name\":\"alloc\""), std::string::npos);
  // The document must still validate; alloc is simply absent.
  EXPECT_TRUE(obs::check_trace_json(trace).ok);
}

TEST(TraceExport, NegativeSpansAreSkippedNotClamped) {
  AppTimeline timeline = full_timeline(1);
  // Clock skew: END_ALLO before START_ALLO.
  timeline.first_ts[EventKind::kEndAllo] =
      timeline.first_ts[EventKind::kStartAllo] - 100;
  const AnalysisResult result = analyze_timelines({std::move(timeline)});
  const std::string trace = scheduling_trace_json(result);
  EXPECT_EQ(trace.find("\"name\":\"alloc\""), std::string::npos);
  const obs::TraceCheckResult check = obs::check_trace_json(trace);
  EXPECT_TRUE(check.ok) << (check.errors.empty() ? "" : check.errors[0]);
}

TEST(TraceExport, EmptyAnalysisProducesValidEmptyDocument) {
  const AnalysisResult result = analyze_timelines({});
  const std::string trace = scheduling_trace_json(result);
  const obs::TraceCheckResult check = obs::check_trace_json(trace);
  EXPECT_TRUE(check.ok);
  EXPECT_EQ(check.events, 0u);
  EXPECT_EQ(check.processes, 0u);
}

TEST(TraceExport, SliceWidthsMatchReportedDelays) {
  const AppTimeline timeline = full_timeline(1);
  const AnalysisResult result = analyze_timelines({timeline});
  ASSERT_EQ(result.delays.size(), 1u);
  const Delays& delays = result.delays.begin()->second;
  const auto slices = slice_durations(scheduling_trace_json(result));

  // total = SUBMITTED -> first worker FIRST_TASK = 800 ms in the synthetic
  // layout; the slice must be exactly that span in microseconds.
  ASSERT_TRUE(delays.total.has_value());
  EXPECT_EQ(*delays.total, 800);

  // Every component of the full timeline is drawn, and each slice is its
  // reported delay wide: the app-level components on tids 1..10 in
  // catalog order, each container's chain on tid 100 + its index.
  std::set<std::string> drawn;
  const auto expect_width = [&](std::int64_t tid, const std::string& name,
                                std::optional<std::int64_t> delay) {
    const auto it = slices.find({tid, name});
    if (!delay) {
      EXPECT_EQ(it, slices.end()) << name << " on tid " << tid;
      return;
    }
    ASSERT_NE(it, slices.end()) << name << " on tid " << tid;
    EXPECT_EQ(it->second, *delay * 1000) << name << " on tid " << tid;
    drawn.insert(name);
  };
  const std::pair<std::string, std::optional<std::int64_t>> app_rows[] = {
      {"total", delays.total},       {"am", delays.am},
      {"cf", delays.cf},             {"cl", delays.cl},
      {"cl-cf", delays.cl_minus_cf}, {"driver", delays.driver},
      {"executor", delays.executor}, {"in-app", delays.in_app},
      {"out-app", delays.out_app},   {"alloc", delays.alloc},
  };
  std::int64_t tid = 1;
  for (const auto& [name, delay] : app_rows) {
    ASSERT_TRUE(delay.has_value()) << name;
    expect_width(tid++, name, delay);
  }
  ASSERT_EQ(delays.containers.size(), 3u);
  std::int64_t container_tid = 100;
  std::size_t container_slices = 0;
  for (const ContainerDelays& container : delays.containers) {
    expect_width(container_tid, "acquisition", container.acquisition);
    expect_width(container_tid, "localization", container.localization);
    expect_width(container_tid, "queuing", container.queuing);
    expect_width(container_tid, "launching", container.launching);
    expect_width(container_tid, "exec-idle", container.executor_idle);
    container_slices += container.is_am ? 4 : 5;
    ++container_tid;
  }
  EXPECT_EQ(drawn.size(), delay_component_specs().size());
  EXPECT_EQ(slices.size(), std::size(app_rows) + container_slices);
}

TEST(TraceExport, OutAppIsDrawnOnlyUnderADrawnInApp) {
  AppTimeline timeline = full_timeline(1);
  // Clock skew: the driver registers 500 ms before its first log line, so
  // in-app (driver + executor) is negative while out-app (total - in-app)
  // is not.
  timeline.first_ts[EventKind::kDriverRegister] =
      timeline.first_ts[EventKind::kDriverFirstLog] - 500;
  const AnalysisResult result = analyze_timelines({std::move(timeline)});
  const Delays& delays = result.delays.begin()->second;
  ASSERT_TRUE(delays.in_app.has_value());
  ASSERT_TRUE(delays.out_app.has_value());
  EXPECT_EQ(*delays.in_app, -400);
  EXPECT_EQ(*delays.out_app, 1200);

  const std::string trace = scheduling_trace_json(result);
  const auto slices = slice_durations(trace);
  const auto drawn = [&](const std::string& name) {
    return std::any_of(slices.begin(), slices.end(), [&](const auto& slice) {
      return slice.first.second == name;
    });
  };
  EXPECT_FALSE(drawn("driver"));
  EXPECT_FALSE(drawn("in-app"));
  EXPECT_FALSE(drawn("out-app"));
  EXPECT_TRUE(drawn("total"));
  EXPECT_TRUE(obs::check_trace_json(trace).ok);
}

}  // namespace
}  // namespace sdc::checker
