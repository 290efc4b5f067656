#include "sdlint/metrics_check.hpp"

#include <map>
#include <string>

#include "common/sim_time.hpp"
#include "harness/scenario.hpp"
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

struct DocRow {
  std::string kind;
  std::string unit;
  std::string doc;
};

/// Catalog rows vs the committed doc table, both directions plus
/// cell-level drift.
void check_doc_parity(const MetricsCheckInputs& inputs,
                      std::vector<Finding>& findings) {
  if (!inputs.doc_found) {
    findings.push_back(make_finding(
        "metrics.doc-missing", "docs/OBSERVABILITY.md",
        "metric-catalog table (between the BEGIN/END markers) not found; "
        "regenerate with `build/tools/sdlint --metric-table`"));
    return;
  }
  std::map<std::string, DocRow, std::less<>> documented;
  for (const std::vector<std::string>& cells :
       parse_markdown_table(inputs.doc_table)) {
    if (cells.empty()) continue;
    const std::string name = strip_backticks(cells[0]);
    if (name == "name") continue;  // header row
    documented[name] = DocRow{cells.size() > 1 ? cells[1] : "",
                              cells.size() > 2 ? cells[2] : "",
                              cells.size() > 3 ? cells[3] : ""};
  }
  for (const obs::MetricSpec& row : inputs.catalog) {
    const auto it = documented.find(row.name);
    if (it == documented.end()) {
      findings.push_back(make_finding(
          "metrics.undocumented", std::string(row.name),
          "catalog row has no docs/OBSERVABILITY.md table row; regenerate "
          "with `build/tools/sdlint --metric-table`"));
      continue;
    }
    if (it->second.kind != obs::metric_kind_name(row.kind) ||
        it->second.unit != row.unit || it->second.doc != row.doc) {
      findings.push_back(make_finding(
          "metrics.doc-drift", std::string(row.name),
          "doc table row disagrees with the catalog (kind/unit/meaning); "
          "regenerate with `build/tools/sdlint --metric-table`"));
    }
  }
  for (const auto& [name, row] : documented) {
    bool in_catalog = false;
    for (const obs::MetricSpec& spec : inputs.catalog) {
      if (spec.name == name) in_catalog = true;
    }
    if (!in_catalog) {
      findings.push_back(make_finding(
          "metrics.stale-doc", name,
          "doc table documents a metric the catalog does not declare"));
    }
  }
}

/// The sdc.delay.* histogram family and the delay-component catalog must
/// name exactly the same instruments, in both directions.
void check_delay_binding(const MetricsCheckInputs& inputs,
                         std::vector<Finding>& findings) {
  constexpr std::string_view kDelayPrefix = "sdc.delay.";
  const obs::MetricSpec* family = nullptr;
  for (const obs::MetricSpec& row : inputs.catalog) {
    if (row.is_family() && row.family_prefix() == kDelayPrefix) family = &row;
  }
  if (family == nullptr) {
    if (!inputs.delay_specs.empty()) {
      findings.push_back(make_finding(
          "metrics.delay-unbound", std::string(kDelayPrefix) + "<component>",
          "the delay-component catalog exists but the metric catalog has "
          "no sdc.delay.<component> family row"));
    }
    return;
  }
  if (family->kind != obs::MetricKind::kHistogram) {
    findings.push_back(make_finding(
        "metrics.delay-unbound", std::string(family->name),
        "the sdc.delay family row must be a histogram (delay components "
        "are sampled distributions)"));
  }
  for (const checker::DelayComponentSpec& spec : inputs.delay_specs) {
    if (!family->matches(spec.histogram)) {
      findings.push_back(make_finding(
          "metrics.delay-unbound", std::string(spec.name),
          "delay component histogram '" + std::string(spec.histogram) +
              "' is outside the " + std::string(family->name) + " family"));
    }
  }
  if (inputs.snapshot == nullptr) return;
  for (const auto& [name, value] : inputs.snapshot->histograms) {
    if (!family->matches(name)) continue;
    bool bound = false;
    for (const checker::DelayComponentSpec& spec : inputs.delay_specs) {
      if (spec.histogram == name) bound = true;
    }
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

  check_doc_parity(inputs, findings);
  check_delay_binding(inputs, findings);

  if (inputs.snapshot != nullptr) {
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
  // its bundle registers mine.* / analyze.* and (through the aggregate
  // report it builds) every sdc.delay.* histogram.  Cached: the checks
  // are pure over the snapshot.
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
  inputs.delay_specs = checker::delay_component_specs();
  inputs.snapshot = &snapshot;
  inputs.doc_table = section.text;
  inputs.doc_found = section.file_found && section.section_found;
  return check_metrics(inputs);
}

}  // namespace sdc::lint
