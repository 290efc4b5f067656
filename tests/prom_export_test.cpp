// Tests for the Prometheus text-exposition writer and its
// writer-independent validator: mechanical name mangling, HELP/TYPE
// metadata from the metric catalog, cumulative histogram rendering
// (empty histograms, overflow folding into +Inf, _count == +Inf), and
// the validator's rejection of malformed or self-inconsistent
// documents.
#include <gtest/gtest.h>

#include <string>

#include "obs/metric_catalog.hpp"
#include "obs/metrics.hpp"
#include "obs/prom_export.hpp"
#include "sdchecker/report.hpp"

namespace sdc::obs {
namespace {

// --- name mangling -----------------------------------------------------

TEST(PromName, StrictManglesDotsAndDashes) {
  EXPECT_EQ(prom_name_strict("sdc.delay.overall"), "sdc_delay_overall");
  EXPECT_EQ(prom_name_strict("mine.diagnostics.unreadable-file"),
            "mine_diagnostics_unreadable_file");
  EXPECT_EQ(prom_name_strict("obs.http.latency_ms.metrics"),
            "obs_http_latency_ms_metrics");
}

TEST(PromName, StrictRejectsUnmappableNames) {
  EXPECT_FALSE(prom_name_strict("").has_value());
  EXPECT_FALSE(prom_name_strict("fixture.bad%char").has_value());
  EXPECT_FALSE(prom_name_strict("2fast").has_value());
  EXPECT_FALSE(prom_name_strict("has space").has_value());
}

TEST(PromName, LenientAlwaysProducesValidNames) {
  for (const std::string name :
       {"fixture.bad%char", "2fast", "has space", "", "..."}) {
    EXPECT_TRUE(is_valid_prom_name(prom_name(name))) << name;
  }
  // Where strict succeeds the two agree.
  EXPECT_EQ(prom_name("sdc.delay.overall"), "sdc_delay_overall");
}

TEST(PromName, EveryCatalogRowManglesStrictly) {
  for (const MetricSpec& row : metric_catalog()) {
    const std::string_view name =
        row.is_family() ? row.family_prefix() : row.name;
    std::string base(name);
    if (!base.empty() && base.back() == '.') base.pop_back();
    EXPECT_TRUE(prom_name_strict(base).has_value()) << row.name;
  }
}

// --- rendering ---------------------------------------------------------

TEST(PromRender, CountersAndGaugesCarryCatalogMetadata) {
  MetricsSnapshot snapshot;
  snapshot.counters["mine.lines"] = 42;
  snapshot.gauges["mine.bytes_expected"] = -3;
  const std::string text = render_prom_text(snapshot);
  EXPECT_NE(text.find("# TYPE mine_lines counter\nmine_lines 42\n"),
            std::string::npos);
  EXPECT_NE(text.find("# TYPE mine_bytes_expected gauge\n"
                      "mine_bytes_expected -3\n"),
            std::string::npos);
  // HELP text comes from the catalog row.
  EXPECT_NE(text.find("# HELP mine_lines log lines mined (all chunks)\n"),
            std::string::npos);
  const PromCheckResult check = check_prom_text(text);
  EXPECT_TRUE(check.ok) << (check.errors.empty() ? "" : check.errors[0]);
  EXPECT_EQ(check.families, 2u);
  EXPECT_EQ(check.samples, 2u);
}

TEST(PromRender, UncatalogedStrayGetsFallbackHelp) {
  MetricsSnapshot snapshot;
  snapshot.counters["rogue.instrument"] = 1;
  const std::string text = render_prom_text(snapshot);
  EXPECT_NE(text.find("# HELP rogue_instrument (not in the metric catalog)"),
            std::string::npos);
  EXPECT_TRUE(check_prom_text(text).ok);
}

TEST(PromRender, EmptyHistogramStillValidates) {
  MetricsSnapshot snapshot;
  MetricsSnapshot::HistogramValue histogram;
  histogram.upper_edges = {1, 10};
  histogram.bucket_counts = {0, 0, 0};
  snapshot.histograms["sdc.delay.total"] = histogram;
  const std::string text = render_prom_text(snapshot);
  EXPECT_NE(text.find("sdc_delay_total_bucket{le=\"1\"} 0\n"),
            std::string::npos);
  EXPECT_NE(text.find("sdc_delay_total_bucket{le=\"+Inf\"} 0\n"),
            std::string::npos);
  EXPECT_NE(text.find("sdc_delay_total_count 0\n"), std::string::npos);
  const PromCheckResult check = check_prom_text(text);
  EXPECT_TRUE(check.ok) << (check.errors.empty() ? "" : check.errors[0]);
}

TEST(PromRender, HistogramBucketsAreCumulativeWithOverflowInInf) {
  MetricsSnapshot snapshot;
  MetricsSnapshot::HistogramValue histogram;
  histogram.upper_edges = {1, 10, 100};
  histogram.bucket_counts = {2, 3, 0, 5};  // last entry = overflow
  histogram.count = 10;
  histogram.sum = 1234.5;
  snapshot.histograms["sdc.delay.total"] = histogram;
  const std::string text = render_prom_text(snapshot);
  EXPECT_NE(text.find("_bucket{le=\"1\"} 2\n"), std::string::npos);
  EXPECT_NE(text.find("_bucket{le=\"10\"} 5\n"), std::string::npos);
  EXPECT_NE(text.find("_bucket{le=\"100\"} 5\n"), std::string::npos);
  EXPECT_NE(text.find("_bucket{le=\"+Inf\"} 10\n"), std::string::npos);
  EXPECT_NE(text.find("_sum 1234.5\n"), std::string::npos);
  EXPECT_NE(text.find("_count 10\n"), std::string::npos);
  EXPECT_TRUE(check_prom_text(text).ok);
}

TEST(PromRender, CountRecomputedFromBucketsNotRacingAtomic) {
  // A snapshot where the count atomic raced ahead of the buckets: the
  // rendered document must still satisfy _count == +Inf.
  MetricsSnapshot snapshot;
  MetricsSnapshot::HistogramValue histogram;
  histogram.upper_edges = {1};
  histogram.bucket_counts = {4, 0};
  histogram.count = 7;  // skewed
  snapshot.histograms["sdc.delay.total"] = histogram;
  const std::string text = render_prom_text(snapshot);
  EXPECT_NE(text.find("_bucket{le=\"+Inf\"} 4\n"), std::string::npos);
  EXPECT_NE(text.find("_count 4\n"), std::string::npos);
  EXPECT_TRUE(check_prom_text(text).ok);
}

TEST(PromRender, FullRegistrySnapshotValidatesAndCoversCatalog) {
  register_catalog_baseline();
  (void)checker::delay_histograms();
  const std::string text =
      render_prom_text(MetricsRegistry::global().snapshot());
  const PromCheckResult check = check_prom_text(text);
  EXPECT_TRUE(check.ok) << (check.errors.empty() ? "" : check.errors[0]);
  // Every non-family catalog row is present under its mangled name.
  for (const MetricSpec& row : metric_catalog()) {
    if (row.is_family()) continue;
    const std::string prom = *prom_name_strict(row.name);
    EXPECT_NE(text.find("# TYPE " + prom + " "), std::string::npos)
        << row.name;
  }
  // And the delay family appears as full histogram series.
  EXPECT_NE(text.find("sdc_delay_total_bucket{le=\"+Inf\"}"),
            std::string::npos);
  EXPECT_NE(text.find("sdc_delay_total_sum"), std::string::npos);
  EXPECT_NE(text.find("sdc_delay_total_count"), std::string::npos);
}

// --- validator rejections ----------------------------------------------

std::string first_error(const PromCheckResult& result) {
  return result.errors.empty() ? "" : result.errors[0];
}

TEST(PromCheck, RejectsMissingTrailingNewline) {
  const PromCheckResult result =
      check_prom_text("# TYPE a counter\na 1");
  EXPECT_FALSE(result.ok);
  EXPECT_NE(first_error(result).find("newline"), std::string::npos);
}

TEST(PromCheck, RejectsSampleWithoutType) {
  const PromCheckResult result = check_prom_text("a 1\n");
  EXPECT_FALSE(result.ok);
}

TEST(PromCheck, RejectsDuplicateSample) {
  const PromCheckResult result =
      check_prom_text("# TYPE a counter\na 1\na 2\n");
  EXPECT_FALSE(result.ok);
  EXPECT_NE(first_error(result).find("duplicate sample"),
            std::string::npos);
}

TEST(PromCheck, RejectsTypeAfterSamples) {
  const PromCheckResult result =
      check_prom_text("# TYPE a counter\na 1\n# TYPE a counter\n");
  EXPECT_FALSE(result.ok);
}

TEST(PromCheck, RejectsNonCumulativeBuckets) {
  const std::string text =
      "# TYPE h histogram\n"
      "h_bucket{le=\"1\"} 5\n"
      "h_bucket{le=\"2\"} 3\n"
      "h_bucket{le=\"+Inf\"} 5\n"
      "h_sum 9\n"
      "h_count 5\n";
  const PromCheckResult result = check_prom_text(text);
  EXPECT_FALSE(result.ok);
}

TEST(PromCheck, RejectsHistogramWithoutInfBucket) {
  const std::string text =
      "# TYPE h histogram\n"
      "h_bucket{le=\"1\"} 5\n"
      "h_sum 9\n"
      "h_count 5\n";
  EXPECT_FALSE(check_prom_text(text).ok);
}

TEST(PromCheck, RejectsCountDisagreeingWithInfBucket) {
  const std::string text =
      "# TYPE h histogram\n"
      "h_bucket{le=\"+Inf\"} 5\n"
      "h_sum 9\n"
      "h_count 6\n";
  EXPECT_FALSE(check_prom_text(text).ok);
}

TEST(PromCheck, RejectsGarbageLinesAndBadLabels) {
  EXPECT_FALSE(check_prom_text("not an exposition {{{\n").ok);
  EXPECT_FALSE(check_prom_text("# TYPE a counter\na{x=unquoted} 1\n").ok);
  EXPECT_FALSE(check_prom_text("# TYPE a counter\na{x=\"y\" 1\n").ok);
  EXPECT_FALSE(check_prom_text("# TYPE a counter\na notafloat\n").ok);
}

TEST(PromCheck, AcceptsHeadComformantExtras) {
  // Free-form comments, label sets and timestamps are all legal.
  const std::string text =
      "# a comment\n"
      "# TYPE a counter\n"
      "a{job=\"x\",instance=\"y\"} 1 1700000000000\n";
  const PromCheckResult result = check_prom_text(text);
  EXPECT_TRUE(result.ok) << first_error(result);
}

}  // namespace
}  // namespace sdc::obs
