// Fleet mode: the pipelined multi-corpus pipeline must be an invisible
// optimization per corpus — each corpus's analysis_json byte-identical
// to a standalone analyze of the same directory — and the KS drift gate
// must flag genuinely shifted distributions while passing identical
// ones.
#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "harness/scenario.hpp"
#include "obs/tracer.hpp"
#include "sdchecker/compare.hpp"
#include "sdchecker/export.hpp"
#include "sdchecker/fleet.hpp"
#include "sdchecker/sdchecker.hpp"
#include "workloads/tpch.hpp"

namespace sdc::checker {
namespace {

namespace fs = std::filesystem;

/// A corpus with a little corruption so diagnostics ordering is part of
/// the parity check too.
logging::LogBundle make_corpus(int jobs, std::uint64_t seed) {
  harness::ScenarioConfig scenario;
  scenario.seed = seed;
  for (int i = 0; i < jobs; ++i) {
    harness::SparkSubmissionPlan plan;
    plan.at = seconds(1 + 4 * i);
    plan.app = workloads::make_tpch_query(1 + i % 22, 1024, 2 + i % 3);
    scenario.spark_jobs.push_back(std::move(plan));
  }
  logging::LogBundle logs = harness::run_scenario(scenario).logs;
  logs.append("rm.log", "no timestamp here: plain unparsable line");
  return logs;
}

/// Writes `count` distinct corpora under a fresh root; returns the root.
fs::path write_fleet_root(const std::string& name, int count) {
  const fs::path root = fs::temp_directory_path() / name;
  fs::remove_all(root);
  for (int i = 0; i < count; ++i) {
    const fs::path dir = root / ("corpus" + std::to_string(i));
    fs::create_directories(dir);
    make_corpus(2 + i, 100 + static_cast<std::uint64_t>(i))
        .write_to_directory(dir);
  }
  return root;
}

TEST(Fleet, PerCorpusJsonByteIdenticalToStandaloneAnalyze) {
  const fs::path root = write_fleet_root("sdc_fleet_parity", 3);
  FleetOptions options;
  options.threads = 4;
  const FleetResult fleet = analyze_fleet(root, options);
  ASSERT_EQ(fleet.corpora.size(), 3u);
  for (const CorpusResult& corpus : fleet.corpora) {
    ASSERT_TRUE(corpus.error.empty()) << corpus.name << ": " << corpus.error;
    const AnalysisResult standalone =
        SdChecker().analyze_directory(corpus.dir);
    EXPECT_EQ(corpus.analysis_json, analysis_json(standalone)) << corpus.name;
    EXPECT_EQ(corpus.apps, standalone.timelines.size());
    EXPECT_EQ(corpus.events, standalone.events_total);
    EXPECT_EQ(corpus.lines, standalone.lines_total);
    EXPECT_EQ(corpus.diagnostics, standalone.diagnostics.size());
  }
  fs::remove_all(root);
}

TEST(Fleet, ThreadAndShardCountsDoNotChangeBytes) {
  const fs::path root = write_fleet_root("sdc_fleet_shard_sweep", 2);
  FleetOptions serial;
  serial.threads = 1;
  const FleetResult reference = analyze_fleet(root, serial);
  for (const std::size_t threads :
       {std::size_t{2}, std::size_t{3}, std::size_t{5}}) {
    FleetOptions options;
    options.threads = threads;
    const FleetResult fleet = analyze_fleet(root, options);
    ASSERT_EQ(fleet.corpora.size(), reference.corpora.size());
    for (std::size_t i = 0; i < fleet.corpora.size(); ++i) {
      EXPECT_EQ(fleet.corpora[i].analysis_json,
                reference.corpora[i].analysis_json)
          << "threads=" << threads << " corpus=" << fleet.corpora[i].name;
    }
  }
  fs::remove_all(root);
}

TEST(Fleet, FinalizeSpanHoldsOnlyItsOwnCorpus) {
  // A corpus finalizes on the worker that completed it, so its
  // `analyze.finalize` span times that corpus alone: no mining,
  // stitching or grouping of other corpora runs inside it.
  const fs::path root = write_fleet_root("sdc_fleet_finalize_spans", 8);
  obs::Tracer& tracer = obs::Tracer::global();
  for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    tracer.clear();
    tracer.set_enabled(true);
    FleetOptions options;
    options.threads = threads;
    const FleetResult fleet = analyze_fleet(root, options);
    tracer.set_enabled(false);
    const std::vector<obs::SpanRecord> spans = tracer.snapshot();
    tracer.clear();
    ASSERT_EQ(fleet.failed(), 0u);

    std::vector<const obs::SpanRecord*> finalizes;
    std::size_t plans = 0;
    for (const obs::SpanRecord& span : spans) {
      if (span.name == "analyze.finalize") finalizes.push_back(&span);
      plans += span.name == "mine.plan";
    }
    EXPECT_EQ(finalizes.size(), 8u) << "threads=" << threads;
    EXPECT_EQ(plans, 8u) << "threads=" << threads;
    // Spans on one track nest or are disjoint, so a span that overlaps a
    // finalize runs inside it; one that only touches its ends does not.
    std::size_t nested = 0;
    for (const obs::SpanRecord* finalize : finalizes) {
      const std::uint64_t end = finalize->start_us + finalize->dur_us;
      for (const obs::SpanRecord& span : spans) {
        if (span.track != finalize->track ||
            (span.name != "mine.chunk" && span.name != "mine.stitch" &&
             span.name != "analyze.group")) {
          continue;
        }
        if (span.start_us < end &&
            finalize->start_us < span.start_us + span.dur_us) {
          ++nested;
        }
      }
    }
    EXPECT_EQ(nested, 0u) << "threads=" << threads;
  }
  fs::remove_all(root);
}

TEST(Fleet, DiscoverCorporaSortedSubdirectoriesOnly) {
  const fs::path root = fs::temp_directory_path() / "sdc_fleet_discover";
  fs::remove_all(root);
  fs::create_directories(root / "banana");
  fs::create_directories(root / "apple");
  fs::create_directories(root / "cherry");
  std::ofstream(root / "stray.log") << "not a corpus\n";
  const std::vector<fs::path> corpora = discover_corpora(root);
  ASSERT_EQ(corpora.size(), 3u);
  EXPECT_EQ(corpora[0].filename(), "apple");
  EXPECT_EQ(corpora[1].filename(), "banana");
  EXPECT_EQ(corpora[2].filename(), "cherry");
  EXPECT_THROW(discover_corpora(root / "missing"), std::runtime_error);
  fs::remove_all(root);
}

TEST(Fleet, UnreadableCorpusBecomesErrorNotAbort) {
  const fs::path root = write_fleet_root("sdc_fleet_partial", 1);
  const std::vector<fs::path> corpora = {root / "corpus0",
                                         root / "does_not_exist"};
  const FleetResult fleet = analyze_fleet(corpora, FleetOptions{});
  ASSERT_EQ(fleet.corpora.size(), 2u);
  EXPECT_TRUE(fleet.corpora[0].error.empty());
  EXPECT_FALSE(fleet.corpora[1].error.empty());
  EXPECT_EQ(fleet.failed(), 1u);
  // The good corpus is still byte-correct.
  const AnalysisResult standalone =
      SdChecker().analyze_directory(fleet.corpora[0].dir);
  EXPECT_EQ(fleet.corpora[0].analysis_json, analysis_json(standalone));
  fs::remove_all(root);
}

TEST(Fleet, SummaryJsonRoundTripsAsBaseline) {
  const fs::path root = write_fleet_root("sdc_fleet_roundtrip", 2);
  const FleetResult fleet = analyze_fleet(root, FleetOptions{});
  const fs::path file = fs::temp_directory_path() / "sdc_fleet_baseline.json";
  {
    std::ofstream out(file);
    out << fleet.summary_json();
  }
  std::string error;
  const auto baseline = load_fleet_baseline(file, &error);
  ASSERT_TRUE(baseline.has_value()) << error;
  ASSERT_EQ(baseline->size(), fleet.components.size());
  for (std::size_t i = 0; i < baseline->size(); ++i) {
    EXPECT_EQ((*baseline)[i].metric, fleet.components[i].metric);
    EXPECT_EQ((*baseline)[i].count, fleet.components[i].count);
    EXPECT_EQ((*baseline)[i].buckets, fleet.components[i].buckets);
  }
  // A fleet gated against its own summary reports no drift.
  const DriftReport drift = histogram_drift(*baseline, fleet.components);
  EXPECT_TRUE(drift.regressions().empty());
  fs::remove(file);
  fs::remove_all(root);
}

TEST(Fleet, LoadBaselineRejectsMalformedInput) {
  const fs::path file = fs::temp_directory_path() / "sdc_fleet_bad.json";
  std::string error;
  EXPECT_FALSE(
      load_fleet_baseline(fs::path("/definitely/missing.json"), &error));
  EXPECT_FALSE(error.empty());
  {
    std::ofstream out(file);
    out << "{\"fleet\":{}}";
  }
  error.clear();
  EXPECT_FALSE(load_fleet_baseline(file, &error));
  EXPECT_NE(error.find("components"), std::string::npos);
  fs::remove(file);
}

TEST(Fleet, LoadBaselineRejectsImpossibleCounts) {
  const fs::path file =
      fs::temp_directory_path() / "sdc_fleet_impossible.json";
  const auto load = [&](const std::string& count, const std::string& bucket,
                        std::string& error) {
    {
      std::ofstream out(file);
      out << "{\"components\":[{\"metric\":\"total\",\"count\":" << count
          << ",\"sum_ms\":10,\"buckets\":[0," << bucket << "]}]}";
    }
    error.clear();
    return load_fleet_baseline(file, &error);
  };
  std::string error;
  const auto good = load("3", "3", error);
  ASSERT_TRUE(good.has_value()) << error;
  EXPECT_EQ((*good)[0].count, 3u);
  EXPECT_EQ((*good)[0].buckets, (std::vector<std::uint64_t>{0, 3}));
  // Negative, fractional and past-2^53 values cannot be counts; each
  // would otherwise reach the drift gate through an undefined cast.
  for (const std::string bad : {"-1", "2.5", "1e300", "18446744073709551616"}) {
    EXPECT_FALSE(load(bad, "3", error)) << "count " << bad;
    EXPECT_NE(error.find("malformed component entry"), std::string::npos)
        << error;
    EXPECT_FALSE(load("3", bad, error)) << "bucket " << bad;
    EXPECT_NE(error.find("malformed component entry"), std::string::npos)
        << error;
  }
  fs::remove(file);
}

TEST(Fleet, ShiftedBaselineTripsTheGate) {
  const fs::path root = write_fleet_root("sdc_fleet_drift", 2);
  const FleetResult fleet = analyze_fleet(root, FleetOptions{});
  // Seeded drift: same components, every observation pushed into the
  // overflow bucket — maximal distribution shift at a healthy n.
  std::vector<ComponentHistogram> drifted = fleet.components;
  for (ComponentHistogram& component : drifted) {
    component.count = 500;
    component.sum_ms = 500.0 * 1e6;
    std::fill(component.buckets.begin(), component.buckets.end(), 0u);
    component.buckets.back() = 500;
  }
  const DriftReport drift = histogram_drift(drifted, fleet.components);
  EXPECT_FALSE(drift.regressions().empty());
  // Worst offenders come first.
  const auto regressions = drift.regressions();
  for (std::size_t i = 1; i < regressions.size(); ++i) {
    EXPECT_GE(regressions[i - 1]->distance / regressions[i - 1]->threshold,
              regressions[i]->distance / regressions[i]->threshold);
  }
  fs::remove_all(root);
}

TEST(Drift, KsDistanceEndpoints) {
  EXPECT_DOUBLE_EQ(ks_distance({10, 0, 0}, {10, 0, 0}), 0.0);
  EXPECT_DOUBLE_EQ(ks_distance({10, 0, 0}, {0, 0, 10}), 1.0);
  EXPECT_DOUBLE_EQ(ks_distance({}, {1, 2, 3}), 0.0);
  EXPECT_DOUBLE_EQ(ks_distance({0, 0}, {1, 2}), 0.0);
  // Half the mass moved one bucket over: D = 0.5 at the first edge.
  EXPECT_DOUBLE_EQ(ks_distance({10, 10}, {5, 15}), 0.25);
}

TEST(Drift, KsThresholdFloorsAndScales) {
  // Huge samples: the asymptotic bound shrinks below the floor.
  EXPECT_DOUBLE_EQ(ks_threshold(1000000, 1000000, 0.05), 0.05);
  // Small samples: 1.36*sqrt(18/81).
  EXPECT_NEAR(ks_threshold(9, 9), 1.36 * std::sqrt(18.0 / 81.0), 1e-12);
  // No evidence is never significant.
  EXPECT_TRUE(std::isinf(ks_threshold(0, 10)));
  EXPECT_TRUE(std::isinf(ks_threshold(10, 0)));
}

TEST(Drift, ComponentHistogramsMatchAggregateSampleCounts) {
  const fs::path root = write_fleet_root("sdc_fleet_hist", 1);
  const AnalysisResult analysis =
      SdChecker().analyze_directory(root / "corpus0");
  const std::vector<ComponentHistogram> components =
      component_histograms(analysis);
  const auto metrics = analysis.aggregate.metrics();
  ASSERT_EQ(components.size(), metrics.size());
  for (std::size_t i = 0; i < components.size(); ++i) {
    EXPECT_EQ(components[i].metric, metrics[i].first);
    EXPECT_EQ(components[i].count, metrics[i].second->size());
    std::uint64_t bucket_total = 0;
    for (const std::uint64_t b : components[i].buckets) bucket_total += b;
    EXPECT_EQ(bucket_total, components[i].count);
    EXPECT_EQ(components[i].buckets.size(),
              component_bucket_edges_ms().size() + 1);
  }
  fs::remove_all(root);
}

}  // namespace
}  // namespace sdc::checker
