#include "sdlint/obs_check.hpp"

#include <algorithm>
#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/trace_check.hpp"
#include "sdchecker/grouping.hpp"
#include "sdchecker/sdchecker.hpp"
#include "sdchecker/trace_export.hpp"

namespace sdc::lint {
namespace {

using checker::AppTimeline;
using checker::ContainerTimeline;
using checker::DelayComponentSpec;
using checker::EventKind;

/// A fully-populated synthetic application — every Table-I anchor plus an
/// AM and two worker containers, laid out so all 15 components decompose
/// to strictly positive spans.  Driving this through the *production*
/// finalize/observe/trace path (rather than hand-built expectations) is
/// the point: the check sees what the pipeline actually emits.
AppTimeline full_timeline() {
  constexpr std::int64_t kT0 = 1499100000000;
  AppTimeline timeline;
  timeline.app = ApplicationId{kT0, 1};

  const auto app_event = [&](EventKind kind, std::int64_t offset_ms) {
    timeline.first_ts[kind] = kT0 + offset_ms;
  };
  app_event(EventKind::kAppSubmitted, 0);
  app_event(EventKind::kAppAccepted, 10);
  app_event(EventKind::kAttemptRegistered, 200);
  app_event(EventKind::kDriverFirstLog, 300);
  app_event(EventKind::kDriverRegister, 400);
  app_event(EventKind::kStartAllo, 450);
  app_event(EventKind::kEndAllo, 500);

  const auto add_container = [&](std::int64_t seq,
                                 std::int64_t offset_ms) -> ContainerTimeline& {
    const ContainerId id{timeline.app, 1, seq};
    ContainerTimeline& container = timeline.containers[id];
    container.id = id;
    const auto event = [&](EventKind kind, std::int64_t at_ms) {
      container.first_ts[kind] = kT0 + offset_ms + at_ms;
    };
    event(EventKind::kContainerAllocated, 0);
    event(EventKind::kContainerAcquired, 20);
    event(EventKind::kNmLocalizing, 40);
    event(EventKind::kNmScheduled, 60);
    event(EventKind::kNmRunning, 100);
    return container;
  };

  // AM container (seq 1): launching anchors at the driver's first log.
  add_container(1, 50);
  // Two workers with staggered starts so cf < cl.
  for (const std::int64_t seq : {std::int64_t{2}, std::int64_t{3}}) {
    ContainerTimeline& container = add_container(seq, 500 + (seq - 2) * 100);
    container.first_ts[EventKind::kExecutorFirstLog] =
        kT0 + 500 + (seq - 2) * 100 + 200;
    container.first_ts[EventKind::kExecutorFirstTask] =
        kT0 + 500 + (seq - 2) * 100 + 300;
  }
  return timeline;
}

bool has_spec_for_metric(std::span<const DelayComponentSpec> specs,
                         std::string_view metric) {
  return std::any_of(specs.begin(), specs.end(),
                     [&](const DelayComponentSpec& spec) {
                       return spec.name == metric;
                     });
}

}  // namespace

std::vector<Finding> check_obs_vocabulary(
    std::span<const DelayComponentSpec> specs) {
  std::vector<Finding> findings;

  const AppTimeline timeline = full_timeline();
  checker::AppTable apps;
  apps[timeline.app] = timeline;
  const checker::AnalysisResult result =
      checker::finalize_analysis(std::move(apps), nullptr);

  // (a) Both directions between AggregateReport::metrics() and the
  // catalog.  A metric without a spec has no histogram name and no trace
  // slice; a spec without a metric is a stale catalog row.
  const auto metrics = result.aggregate.metrics();
  for (const auto& [name, samples] : metrics) {
    if (!has_spec_for_metric(specs, name)) {
      findings.push_back(make_finding(
          "obs.missing-metric", name,
          "AggregateReport reports delay component '" + name +
              "' but the delay component catalog "
              "(checker::delay_component_specs) has no entry for it, so it "
              "gets neither a registered histogram nor a trace slice"));
    }
  }
  for (const DelayComponentSpec& spec : specs) {
    const bool known =
        std::any_of(metrics.begin(), metrics.end(), [&](const auto& entry) {
          return entry.first == spec.name;
        });
    if (!known) {
      findings.push_back(make_finding(
          "obs.stale-spec", std::string(spec.name),
          "delay component catalog entry '" + std::string(spec.name) +
              "' matches no AggregateReport metric — the decomposition no "
              "longer produces it"));
    }
  }

  // (b) Observing the synthetic decomposition — the step analyze, fleet
  // and follow retirement take once per application — must have
  // registered every catalog histogram.
  for (const auto& [app, delays] : result.delays) {
    checker::observe_delays(delays);
  }
  const obs::MetricsSnapshot snapshot = obs::MetricsRegistry::global().snapshot();
  for (const DelayComponentSpec& spec : specs) {
    if (!snapshot.has_histogram(spec.histogram)) {
      findings.push_back(make_finding(
          "obs.missing-histogram", std::string(spec.name),
          "no histogram named '" + std::string(spec.histogram) +
              "' was registered after observing a fully-populated "
              "application — observe_delays does not observe this "
              "component"));
    }
  }

  // (c) The production trace exporter must materialize every catalog
  // slice (and the --check contract's required app slices) for the same
  // fully-populated application.
  const std::string trace = checker::scheduling_trace_json(result);
  obs::TraceCheckOptions structural;
  structural.required_process_prefix = "application_";
  const obs::TraceCheckResult base = obs::check_trace_json(trace, structural);
  if (!base.ok) {
    for (const std::string& error : base.errors) {
      findings.push_back(make_finding("obs.trace-invalid",
                                      timeline.app.str(), error));
    }
    return findings;
  }

  obs::TraceCheckOptions strict = structural;
  std::set<std::string> wanted;
  for (const DelayComponentSpec& spec : specs) {
    wanted.insert(std::string(spec.name));
  }
  for (const std::string_view slice : checker::required_app_slices()) {
    wanted.insert(std::string(slice));
  }
  strict.required_slices.assign(wanted.begin(), wanted.end());
  const obs::TraceCheckResult sliced = obs::check_trace_json(trace, strict);
  for (const std::string& error : sliced.errors) {
    findings.push_back(
        make_finding("obs.missing-slice", timeline.app.str(), error));
  }
  return findings;
}

std::vector<Finding> check_real_obs_vocabulary() {
  return check_obs_vocabulary(checker::delay_component_specs());
}

}  // namespace sdc::lint
