// Aggregation and rendering of decomposition results across many
// applications: the percentiles, CDFs and standard deviations the paper's
// figures plot, plus text/CSV renderers used by the benches and examples.
#pragma once

#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "common/stats.hpp"
#include "sdchecker/decompose.hpp"

namespace sdc::obs {
class Histogram;
}  // namespace sdc::obs

namespace sdc::checker {

/// Sample sets (in seconds) per delay metric, filled from per-app
/// decompositions.
struct AggregateReport {
  SampleSet total;
  SampleSet am;
  SampleSet cf;
  SampleSet cl;
  SampleSet cl_minus_cf;
  SampleSet driver;
  SampleSet executor;
  SampleSet in_app;
  SampleSet out_app;
  SampleSet alloc;
  SampleSet acquisition;   // per container
  SampleSet localization;  // per container
  SampleSet queuing;       // per container
  SampleSet launching;     // per container
  SampleSet exec_idle;     // per container (Fig. 10 executor idleness)

  /// Folds one application's decomposition in: each catalog row's
  /// values into its sample set, per-container rows from workers only.
  void add(const Delays& delays);

  /// Number of applications folded in.
  [[nodiscard]] std::size_t app_count() const noexcept { return apps_; }

  /// Fixed-width text table: metric | n | median | p95 | mean | stddev.
  [[nodiscard]] std::string render_text() const;

  /// CSV with the same columns.
  [[nodiscard]] std::string render_csv() const;

  /// Named access to each metric for table-driven consumers, in catalog
  /// order.
  [[nodiscard]] std::vector<std::pair<std::string, const SampleSet*>>
  metrics() const;

 private:
  std::size_t apps_ = 0;
};

/// One delay component.  `delay_component_specs()` is the one list of
/// them: `decompose` fills each row's member with its span's length,
/// `AggregateReport` and the `sdc.delay.*` histograms read it, and the
/// trace export draws the span as a slice named after the row.
struct DelayComponentSpec {
  /// `AggregateReport::metrics()` name, trace slice name and histogram
  /// suffix ("cl-cf" is histogram `sdc.delay.cl-cf`).
  std::string_view name;
  /// The `Delays` member of an app-level row, or the `ContainerDelays`
  /// member of a per-container row; the other is null.
  std::optional<std::int64_t> Delays::* app = nullptr;
  std::optional<std::int64_t> ContainerDelays::* container = nullptr;
  /// The sample set the row's values are folded into.
  SampleSet AggregateReport::* samples = nullptr;
};

/// All 15 components: the `kAppComponents` app-level rows, then the
/// `kContainerComponents` per-container rows.
[[nodiscard]] std::span<const DelayComponentSpec> delay_component_specs();

/// The `sdc.delay.<component>` histograms (ms), indexed by catalog row,
/// each named `sdc.delay.` + the row's `name`; the first call registers
/// them all.
[[nodiscard]] std::span<obs::Histogram* const> delay_histograms();

/// Observes one application's values — those `AggregateReport::add`
/// folds — into the `sdc.delay.*` histograms.  Each application is
/// observed once: at the end of its corpus's analysis, or when the
/// follow service retires it.
void observe_delays(const Delays& delays);

}  // namespace sdc::checker
