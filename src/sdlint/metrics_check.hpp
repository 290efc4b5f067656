// Check (e): every metric the tree registers is a catalog row, the
// committed doc table is the catalog's rendering, and every registered
// `sdc.delay.*` histogram names a delay component (ISSUE 8).
//
// Inputs are injectable so fixtures can seed each violation: a broken
// catalog, a drifted doc table, a snapshot carrying an uncataloged
// instrument.  The real variant drives a micro simulation + analysis so
// the registry snapshot actually contains the production instruments,
// then checks:
//
//   catalog              metrics.duplicate-spec (no row shadows another)
//   docs                 metrics.doc-drift (the marker section must equal
//                        obs::render_metric_table of the catalog, byte
//                        for byte; the first differing line is named)
//   registry -> catalog  metrics.unknown-instrument / metrics.kind-mismatch
//   delay vocabulary     metrics.delay-unbound (a registered sdc.delay.*
//                        histogram whose suffix is no
//                        checker::delay_component_specs() name)
//
// The catalog rows themselves always have their histogram:
// `delay_histograms()` registers `sdc.delay.` + each row's name through
// the family row, and that registration throws on a missing or
// non-histogram family.
#pragma once

#include <span>
#include <string_view>
#include <vector>

#include "obs/metric_catalog.hpp"
#include "obs/metrics.hpp"
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
  /// Registered-instrument view; nullptr skips the registry checks.
  const obs::MetricsSnapshot* snapshot = nullptr;
  /// The marker-delimited doc table (markdown).
  std::string_view doc_table;
  /// False reports the table as not found (metrics.doc-drift).
  bool doc_found = true;
};

std::vector<Finding> check_metrics(const MetricsCheckInputs& inputs);

/// check_metrics over the real catalog, the committed
/// docs/OBSERVABILITY.md table and a registry snapshot taken after a
/// micro scenario + analysis populated the production instruments.
std::vector<Finding> check_real_metrics();

}  // namespace sdc::lint
