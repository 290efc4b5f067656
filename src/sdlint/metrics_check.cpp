#include "sdlint/metrics_check.hpp"

#include <algorithm>
#include <string>

#include "common/sim_time.hpp"
#include "harness/scenario.hpp"
#include "sdchecker/report.hpp"
#include "sdchecker/sdchecker.hpp"
#include "sdlint/doc_sources.hpp"
#include "workloads/tpch.hpp"

namespace sdc::lint {
namespace {

const obs::MetricSpec* find_spec(std::span<const obs::MetricSpec> catalog,
                                 std::string_view instrument) {
  for (const obs::MetricSpec& row : catalog) {
    if (row.matches(instrument)) return &row;
  }
  return nullptr;
}

/// One registered instrument against the catalog: unknown name or
/// wrong-kind row, each a finding.
void check_instrument(std::span<const obs::MetricSpec> catalog,
                      std::string_view name, obs::MetricKind kind,
                      std::vector<Finding>& findings) {
  const obs::MetricSpec* row = find_spec(catalog, name);
  if (row == nullptr) {
    findings.push_back(make_finding(
        "metrics.unknown-instrument", std::string(name),
        "registered " + std::string(obs::metric_kind_name(kind)) +
            " has no metric-catalog row (register through "
            "obs::catalog_* with a spec, and add the row)"));
    return;
  }
  if (row->kind != kind) {
    findings.push_back(make_finding(
        "metrics.kind-mismatch", std::string(name),
        "registered as a " + std::string(obs::metric_kind_name(kind)) +
            " but catalog row '" + std::string(row->name) + "' declares a " +
            std::string(obs::metric_kind_name(row->kind))));
  }
}

/// The committed doc table must be the catalog's rendering, byte for
/// byte; a difference is reported at its first line.
void check_doc_table(const MetricsCheckInputs& inputs,
                     std::vector<Finding>& findings) {
  const std::string subject = "docs/OBSERVABILITY.md";
  const std::string regenerate =
      "; regenerate with `build/tools/sdlint --metric-table`";
  if (!inputs.doc_found) {
    findings.push_back(make_finding(
        "metrics.doc-drift", subject,
        "metric-catalog table (between the BEGIN/END markers) not found" +
            regenerate));
    return;
  }
  if (const auto difference =
          first_line_difference("metric table", "the catalog", inputs.doc_table,
                                obs::render_metric_table(inputs.catalog))) {
    findings.push_back(
        make_finding("metrics.doc-drift", subject, *difference + regenerate));
  }
}

/// Every registered sdc.delay.* histogram must name a delay component:
/// its suffix is a row's `name`.
void check_delay_binding(const obs::MetricsSnapshot& snapshot,
                         std::vector<Finding>& findings) {
  const obs::MetricSpec& family = obs::metric::kSdcDelay;
  const auto specs = checker::delay_component_specs();
  for (const auto& [name, value] : snapshot.histograms) {
    if (!family.matches(name)) continue;
    const std::string_view component =
        std::string_view(name).substr(family.family_prefix().size());
    const bool bound = std::any_of(
        specs.begin(), specs.end(),
        [&](const checker::DelayComponentSpec& spec) {
          return spec.name == component;
        });
    if (!bound) {
      findings.push_back(make_finding(
          "metrics.delay-unbound", name,
          "registered sdc.delay.* histogram matches no delay-component "
          "catalog row (checker::delay_component_specs())"));
    }
  }
}

}  // namespace

std::vector<Finding> check_metrics(const MetricsCheckInputs& inputs) {
  std::vector<Finding> findings;

  // Catalog self-consistency: no row may shadow another.
  for (std::size_t i = 0; i < inputs.catalog.size(); ++i) {
    for (std::size_t j = i + 1; j < inputs.catalog.size(); ++j) {
      const obs::MetricSpec& a = inputs.catalog[i];
      const obs::MetricSpec& b = inputs.catalog[j];
      if (a.name == b.name || a.matches(b.name) || b.matches(a.name)) {
        findings.push_back(make_finding(
            "metrics.duplicate-spec", std::string(a.name),
            "catalog row overlaps row '" + std::string(b.name) +
                "' (same name, or one family matches the other)"));
      }
    }
  }

  check_doc_table(inputs, findings);

  if (inputs.snapshot != nullptr) {
    check_delay_binding(*inputs.snapshot, findings);
    for (const auto& [name, value] : inputs.snapshot->counters) {
      check_instrument(inputs.catalog, name, obs::MetricKind::kCounter,
                       findings);
    }
    for (const auto& [name, value] : inputs.snapshot->gauges) {
      check_instrument(inputs.catalog, name, obs::MetricKind::kGauge,
                       findings);
    }
    for (const auto& [name, value] : inputs.snapshot->histograms) {
      check_instrument(inputs.catalog, name, obs::MetricKind::kHistogram,
                       findings);
    }
  }
  return findings;
}

std::vector<Finding> check_real_metrics() {
  // Populate the registry with the production instruments before
  // snapshotting: a micro scenario registers the sim.* family; analyzing
  // its bundle registers mine.* / analyze.* and (observing its
  // applications) every sdc.delay.* histogram.  Cached: the checks are
  // pure over the snapshot.
  static const obs::MetricsSnapshot snapshot = [] {
    harness::ScenarioConfig scenario;
    scenario.seed = 7;
    harness::SparkSubmissionPlan plan;
    plan.at = seconds(1);
    plan.app = workloads::make_tpch_query(1, 512, 2);
    scenario.spark_jobs.push_back(plan);
    const harness::ScenarioResult run = harness::run_scenario(scenario);

    const checker::SdChecker checker;
    (void)checker.analyze(run.logs);
    return obs::MetricsRegistry::global().snapshot();
  }();

  const DocSection section =
      load_doc_section("OBSERVABILITY.md", kMetricTableBegin, kMetricTableEnd);
  MetricsCheckInputs inputs;
  inputs.catalog = obs::metric_catalog();
  inputs.snapshot = &snapshot;
  inputs.doc_table = section.text;
  inputs.doc_found = section.file_found && section.section_found;
  return check_metrics(inputs);
}

}  // namespace sdc::lint
