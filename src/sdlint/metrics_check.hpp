// Check (e): every metric the tree registers is a catalog row, and the
// catalog, the committed doc table and the delay-component vocabulary
// agree (ISSUE 8).
//
// Inputs are injectable so fixtures can seed each violation: a broken
// catalog, a drifted doc table, a snapshot carrying an uncataloged
// instrument.  The real variant drives a micro simulation + analysis so
// the registry snapshot actually contains the production instruments,
// then cross-examines four surfaces:
//
//   catalog -> docs      metrics.undocumented / metrics.doc-drift
//   docs -> catalog      metrics.stale-doc
//   registry -> catalog  metrics.unknown-instrument / metrics.kind-mismatch
//   delay vocabulary     metrics.delay-unbound (sdc.delay.* histograms
//                        bound to checker::delay_component_specs() both
//                        directions)
//
// plus catalog self-consistency (metrics.duplicate-spec) and doc
// presence (metrics.doc-missing).
#pragma once

#include <span>
#include <string_view>
#include <vector>

#include "obs/metric_catalog.hpp"
#include "obs/metrics.hpp"
#include "sdchecker/report.hpp"
#include "sdlint/findings.hpp"

namespace sdc::lint {

/// Marker lines bracketing the generated table in docs/OBSERVABILITY.md.
inline constexpr std::string_view kMetricTableBegin =
    "<!-- BEGIN METRIC CATALOG TABLE "
    "(generated: build/tools/sdlint --metric-table) -->";
inline constexpr std::string_view kMetricTableEnd =
    "<!-- END METRIC CATALOG TABLE -->";

struct MetricsCheckInputs {
  std::span<const obs::MetricSpec> catalog;
  std::span<const checker::DelayComponentSpec> delay_specs;
  /// Registered-instrument view; nullptr skips the registry checks.
  const obs::MetricsSnapshot* snapshot = nullptr;
  /// The marker-delimited doc table (markdown).
  std::string_view doc_table;
  /// False turns every doc comparison into metrics.doc-missing.
  bool doc_found = true;
};

std::vector<Finding> check_metrics(const MetricsCheckInputs& inputs);

/// check_metrics over the real catalog, the committed
/// docs/OBSERVABILITY.md table, the real delay-component specs, and a
/// registry snapshot taken after a micro scenario + analysis populated
/// the production instruments.
std::vector<Finding> check_real_metrics();

}  // namespace sdc::lint
