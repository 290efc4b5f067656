// Tests for the seeded corpus mutator and its self-check harness: the
// analyzer never crashes on any mutant, the identity mutation is
// event-for-event identical to the baseline, every destructive class
// surfaces a nonzero count of its expected diagnostic kind, and each
// mutant's one analysis passes every leg of the sweep.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <string>

#include "golden_dir.hpp"
#include "logging/log_bundle.hpp"
#include "obs/trace_check.hpp"
#include "sdchecker/corpus_mutator.hpp"
#include "sdchecker/export.hpp"
#include "sdchecker/sdchecker.hpp"
#include "sdchecker/trace_export.hpp"

namespace sdc::checker {
namespace {

const logging::LogBundle& golden() {
  static const logging::LogBundle bundle =
      logging::LogBundle::read_from_directory(golden_small_dir());
  return bundle;
}

/// Every leg of one case, named for a failure message.
std::string legs(const FuzzCaseResult& result) {
  return render_fuzz_report({result});
}

TEST(CorpusMutator, ClassNamesRoundTrip) {
  const auto classes = all_mutation_classes();
  ASSERT_EQ(classes.size(), kMutationClassCount);
  EXPECT_EQ(classes.front(), MutationClass::kIdentity);
  for (const MutationClass cls : classes) {
    const auto name = mutation_class_name(cls);
    EXPECT_NE(name, "?");
    const auto parsed = mutation_class_from_name(name);
    ASSERT_TRUE(parsed.has_value()) << name;
    EXPECT_EQ(*parsed, cls);
  }
  EXPECT_FALSE(mutation_class_from_name("no-such-class").has_value());
}

TEST(CorpusMutator, DeterministicForSameSeed) {
  for (const MutationClass cls : all_mutation_classes()) {
    const auto a = apply_mutation(golden(), cls, 7);
    const auto b = apply_mutation(golden(), cls, 7);
    EXPECT_EQ(a, b) << mutation_class_name(cls);
  }
}

TEST(CorpusMutator, IdentityIsByteIdentical) {
  const auto mutated =
      apply_mutation(golden(), MutationClass::kIdentity, 42);
  EXPECT_EQ(golden(), mutated);
}

TEST(CorpusMutator, NeverCrashesAcrossSeedsAndClasses) {
  // The never-crash contract, over several seeds.  fuzz_corpus captures
  // any analyzer exception as a per-case failure; none may occur, and
  // every leg must pass on every mutant.
  for (const std::uint64_t seed : {1ull, 42ull, 20170703ull}) {
    const auto results =
        fuzz_corpus(golden_small_dir(), seed, all_mutation_classes());
    ASSERT_EQ(results.size(), kMutationClassCount);
    for (const FuzzCaseResult& result : results) {
      EXPECT_FALSE(result.crashed) << "seed " << seed << ": " << legs(result);
      EXPECT_TRUE(result.ok) << "seed " << seed << ": " << legs(result);
    }
  }
}

TEST(CorpusMutator, IdentityLegReadsLinesAsTheMinerDoes) {
  // Lines ending "\r\r\n": the miner strips one '\r' and leaves the
  // other in the message, so few events extract.  The identity mutant is
  // written from the bundle read of the same files, and must mine the
  // same: the bundle reader keeps both '\r', as the directory reader does.
  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() / "sdc_mutator_crcrlf";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  for (const auto& entry :
       std::filesystem::directory_iterator(golden_small_dir())) {
    std::ifstream in(entry.path(), std::ios::binary);
    std::ofstream out(dir / entry.path().filename(), std::ios::binary);
    for (std::string line; std::getline(in, line);) out << line << "\r\r\n";
  }
  const auto results = fuzz_corpus(dir, 1, {MutationClass::kIdentity});
  ASSERT_EQ(results.size(), 1u);
  EXPECT_TRUE(results[0].signal) << legs(results[0]);
  EXPECT_TRUE(results[0].ok) << legs(results[0]);
  EXPECT_EQ(results[0].events_total,
            SdChecker().analyze_directory(dir).events_total);
  std::filesystem::remove_all(dir);
}

TEST(CorpusMutator, OutDirKeepsEachMutantAndRefusesToMixIn) {
  // `out_dir/<class>` holds exactly the mutant that was analyzed; a
  // second sweep into the same directory would mix two mutants' files.
  const std::filesystem::path out =
      std::filesystem::temp_directory_path() / "sdc_mutator_out_dir";
  std::filesystem::remove_all(out);
  const auto results = fuzz_corpus(golden_small_dir(), 42,
                                   {MutationClass::kRotateSplit}, out);
  ASSERT_EQ(results.size(), 1u);
  EXPECT_TRUE(results[0].ok) << legs(results[0]);
  EXPECT_EQ(logging::LogBundle::read_from_directory(out / "rotate-split"),
            apply_mutation(golden(), MutationClass::kRotateSplit, 42));
  EXPECT_THROW(fuzz_corpus(golden_small_dir(), 1,
                           {MutationClass::kRotateSplit}, out),
               std::runtime_error);
  std::filesystem::remove_all(out);
}

TEST(CorpusMutator, IdentityMutationEventIdenticalToBaseline) {
  const SdChecker checker;
  const AnalysisResult baseline = checker.analyze(golden());
  const AnalysisResult identical =
      checker.analyze(apply_mutation(golden(), MutationClass::kIdentity, 42));
  EXPECT_EQ(events_csv(baseline), events_csv(identical));
  EXPECT_EQ(delays_csv(baseline), delays_csv(identical));
  EXPECT_EQ(baseline.events_total, identical.events_total);
  EXPECT_EQ(identical.diag_counts.total(), 0u);
}

TEST(CorpusMutator, DestructiveClassesYieldClassCorrectDiagnostics) {
  const auto results =
      fuzz_corpus(golden_small_dir(), 42, all_mutation_classes());
  ASSERT_EQ(results.size(), kMutationClassCount);
  for (const FuzzCaseResult& result : results) {
    EXPECT_TRUE(result.ok) << legs(result);
    const auto kind = expected_diagnostic(result.cls);
    if (!kind) continue;  // identity
    EXPECT_GT(result.expected_kind_count, 0u)
        << mutation_class_name(result.cls) << " should surface "
        << logging::diagnostic_kind_name(*kind);
  }
}

TEST(CorpusMutator, DiagnosticsSurfaceInAnalysisJson) {
  // The per-kind counts of a mutant's analysis are visible (nonzero) in
  // the machine-readable export.
  const SdChecker checker;
  for (const MutationClass cls :
       {MutationClass::kGarbageBytes, MutationClass::kRotateSplit,
        MutationClass::kClockSkew}) {
    const auto analysis = checker.analyze(apply_mutation(golden(), cls, 42));
    const auto kind = expected_diagnostic(cls);
    ASSERT_TRUE(kind.has_value());
    EXPECT_GT(analysis.diag_counts.of(*kind), 0u) << mutation_class_name(cls);
    const std::string json = analysis_json(analysis);
    const std::string key =
        '"' + std::string(logging::diagnostic_kind_name(*kind)) + "\":";
    ASSERT_NE(json.find(key), std::string::npos) << json.substr(0, 200);
    // The count right after the key must not be zero.
    const std::string zero = key + " 0";
    EXPECT_EQ(json.find(zero), std::string::npos) << mutation_class_name(cls);
  }
}

TEST(CorpusMutator, ClockSkewReachesANegativeInAppAndStillTraces) {
  // The clock-skew mutant also steps a driver's clock back, so the fuzz
  // corpora reach a negative in-app: the case where the trace draws
  // neither in-app nor the out-app under it.
  const SdChecker checker;
  for (const std::uint64_t seed : {1ull, 42ull, 20170703ull}) {
    const AnalysisResult analysis = checker.analyze(
        apply_mutation(golden(), MutationClass::kClockSkew, seed));
    EXPECT_TRUE(std::any_of(analysis.delays.begin(), analysis.delays.end(),
                            [](const auto& entry) {
                              const auto& in_app = entry.second.in_app;
                              return in_app && *in_app < 0;
                            }))
        << "seed " << seed;
    EXPECT_GT(analysis.diag_counts.of(
                  logging::DiagnosticKind::kTimestampRegression),
              0u)
        << "seed " << seed;
    const obs::TraceCheckResult check =
        obs::check_trace_json(scheduling_trace_json(analysis));
    EXPECT_TRUE(check.ok) << "seed " << seed << ": "
                          << (check.errors.empty() ? "" : check.errors[0]);
  }
}

TEST(CorpusMutator, MutantsRoundTripThroughDirectoryIo) {
  // Garbage bytes (including NULs) must survive write_to_directory /
  // read_from_directory, so a replayed mutant reproduces the in-memory
  // diagnostics exactly.
  const auto mutated =
      apply_mutation(golden(), MutationClass::kGarbageBytes, 42);
  const auto dir =
      std::filesystem::temp_directory_path() / "sdc_mutator_roundtrip";
  std::filesystem::remove_all(dir);
  mutated.write_to_directory(dir);
  const auto reread = logging::LogBundle::read_from_directory(dir);
  EXPECT_EQ(mutated, reread);
  const SdChecker checker;
  EXPECT_EQ(checker.analyze(mutated).diag_counts.of(
                logging::DiagnosticKind::kBinaryGarbage),
            checker.analyze(reread).diag_counts.of(
                logging::DiagnosticKind::kBinaryGarbage));
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace sdc::checker
