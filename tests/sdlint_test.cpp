// sdlint: one assertion per check against the seeded-violation corpus,
// a clean-tree zero-findings run, and regression tests for the
// emitter/extractor reconciliations (real miner on rendered lines).
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "common/log_contract.hpp"
#include "logging/diagnostics.hpp"
#include "mine_helpers.hpp"
#include "obs/metric_catalog.hpp"
#include "sdchecker/corpus_mutator.hpp"
#include "sdchecker/extractor.hpp"
#include "sdlint/contract_check.hpp"
#include "sdlint/coverage_check.hpp"
#include "sdlint/diag_check.hpp"
#include "sdlint/doc_sources.hpp"
#include "sdlint/findings.hpp"
#include "sdlint/fixtures.hpp"
#include "sdlint/machine_check.hpp"
#include "sdlint/metrics_check.hpp"
#include "sdlint/runner.hpp"
#include "spark/log_contract.hpp"
#include "workloads/log_contract.hpp"
#include "yarn/log_contract.hpp"
#include "yarn/state_machine.hpp"

namespace sdc {
namespace {

using lint::Finding;

std::vector<Finding> run_fixture(std::string_view name) {
  for (const lint::Fixture& fixture : lint::fixtures()) {
    if (fixture.name == name) return fixture.run();
  }
  ADD_FAILURE() << "no fixture named " << name;
  return {};
}

// --- the real tree is clean --------------------------------------------------

TEST(SdlintClean, RealTablesProduceZeroFindings) {
  const lint::Report report = lint::run_all_checks();
  for (const Finding& finding : report.findings) {
    ADD_FAILURE() << finding.check << " " << finding.subject << ": "
                  << finding.detail;
  }
  EXPECT_TRUE(report.clean());
}

TEST(SdlintClean, SelftestPasses) {
  EXPECT_TRUE(lint::run_selftest().empty());
}

TEST(SdlintClean, JsonReportOfCleanRunHasZeroCount) {
  const lint::Report report = lint::run_all_checks();
  EXPECT_NE(lint::findings_to_json(report.findings).find("\"count\":0"),
            std::string::npos);
}

// --- one assertion per machine check -----------------------------------------

TEST(SdlintMachine, UnreachableStateFires) {
  EXPECT_TRUE(lint::any_with_prefix(run_fixture("machine-unreachable-state"),
                                    "machine.unreachable"));
}

TEST(SdlintMachine, DeadTransitionFires) {
  EXPECT_TRUE(lint::any_with_prefix(run_fixture("machine-dead-transition"),
                                    "machine.dead-transition"));
}

TEST(SdlintMachine, NondeterministicTransitionFires) {
  EXPECT_TRUE(lint::any_with_prefix(run_fixture("machine-nondeterministic"),
                                    "machine.nondeterministic"));
}

TEST(SdlintMachine, DuplicateTransitionFires) {
  EXPECT_TRUE(lint::any_with_prefix(
      run_fixture("machine-duplicate-transition"),
      "machine.duplicate-transition"));
}

TEST(SdlintMachine, TerminalWithOutgoingEdgeFires) {
  EXPECT_TRUE(lint::any_with_prefix(run_fixture("machine-terminal-outgoing"),
                                    "machine.terminal-outgoing"));
}

TEST(SdlintMachine, DeadEndStateFires) {
  EXPECT_TRUE(lint::any_with_prefix(run_fixture("machine-dead-end"),
                                    "machine.dead-end"));
}

TEST(SdlintMachine, UnknownEmitsNameFires) {
  EXPECT_TRUE(lint::any_with_prefix(run_fixture("machine-unknown-event"),
                                    "machine.unknown-event"));
}

// --- one assertion per contract check ----------------------------------------

TEST(SdlintContract, FormatDriftFires) {
  EXPECT_TRUE(lint::any_with_prefix(run_fixture("contract-format-drift"),
                                    "contract.no-match"));
}

TEST(SdlintContract, AmbiguousLineFires) {
  EXPECT_TRUE(lint::any_with_prefix(run_fixture("contract-ambiguous-line"),
                                    "contract.ambiguous"));
}

TEST(SdlintContract, WrongEventFires) {
  EXPECT_TRUE(lint::any_with_prefix(run_fixture("contract-wrong-event"),
                                    "contract.wrong-event"));
}

TEST(SdlintContract, MissingIdFires) {
  EXPECT_TRUE(lint::any_with_prefix(run_fixture("contract-missing-id"),
                                    "contract.no-id"));
}

TEST(SdlintContract, NoisyInformationalLineFires) {
  EXPECT_TRUE(lint::any_with_prefix(run_fixture("contract-noisy-info-line"),
                                    "contract.noisy"));
}

TEST(SdlintContract, OrphanExtractorRuleFires) {
  EXPECT_TRUE(lint::any_with_prefix(run_fixture("contract-orphan-rule"),
                                    "contract.dead-rule"));
}

TEST(SdlintContract, UnknownLoggerClassFires) {
  EXPECT_TRUE(lint::any_with_prefix(run_fixture("contract-unknown-class"),
                                    "contract.unknown-class"));
}

TEST(SdlintCoverage, MissingKindFires) {
  const std::vector<Finding> findings =
      run_fixture("coverage-missing-kind");
  EXPECT_TRUE(lint::any_with_prefix(findings, "coverage.missing-kind"));
  // Dropping Spark loses at minimum REGISTER and FIRST_TASK.
  const auto subject = [&](std::string_view name) {
    return std::any_of(findings.begin(), findings.end(),
                       [&](const Finding& f) { return f.subject == name; });
  };
  EXPECT_TRUE(subject("DRV_REGISTER"));
  EXPECT_TRUE(subject("FIRST_TASK"));
}

// --- one assertion per metrics check -----------------------------------------

TEST(SdlintMetrics, DuplicateSpecFires) {
  EXPECT_TRUE(lint::any_with_prefix(run_fixture("metrics-duplicate-spec"),
                                    "metrics.duplicate-spec"));
}

/// The detail of a doc fixture's `check` finding (metrics.doc-drift or
/// diag.doc-drift), which names the first table line that differs from
/// the code's rendering.
std::string doc_drift_detail(std::string_view fixture,
                             std::string_view check) {
  for (const Finding& finding : run_fixture(fixture)) {
    if (finding.check == check) return finding.detail;
  }
  ADD_FAILURE() << fixture << " raised no " << check;
  return {};
}

TEST(SdlintMetrics, UndocumentedCatalogRowFires) {
  EXPECT_NE(doc_drift_detail("metrics-undocumented", "metrics.doc-drift")
                .find("line 4 is the end of the table, the catalog renders "
                      "'| `sdc.delay.<component>` |"),
            std::string::npos);
}

TEST(SdlintMetrics, StaleDocRowFires) {
  EXPECT_NE(doc_drift_detail("metrics-stale-doc", "metrics.doc-drift")
                .find("line 5 is '| `fixture.ghost` |"),
            std::string::npos);
}

TEST(SdlintMetrics, DocDriftFires) {
  EXPECT_NE(doc_drift_detail("metrics-doc-drift", "metrics.doc-drift")
                .find("line 3 is '| `fixture.lines` | gauge |"),
            std::string::npos);
}

TEST(SdlintMetrics, UnknownInstrumentFires) {
  EXPECT_TRUE(lint::any_with_prefix(
      run_fixture("metrics-unknown-instrument"),
      "metrics.unknown-instrument"));
}

TEST(SdlintMetrics, KindMismatchFires) {
  EXPECT_TRUE(lint::any_with_prefix(run_fixture("metrics-kind-mismatch"),
                                    "metrics.kind-mismatch"));
}

TEST(SdlintMetrics, DelayUnboundFires) {
  EXPECT_TRUE(lint::any_with_prefix(run_fixture("metrics-delay-unbound"),
                                    "metrics.delay-unbound"));
}

TEST(SdlintMetrics, MissingDocFires) {
  EXPECT_NE(doc_drift_detail("metrics-doc-missing", "metrics.doc-drift")
                .find("not found"),
            std::string::npos);
}

TEST(SdlintMetrics, CommittedDocTableIsExactlyTheRenderedCatalog) {
  // The doc table is generated, not hand-maintained: the committed text
  // between the markers must be byte-identical to the renderer output.
  const lint::DocSection section = lint::load_doc_section(
      "OBSERVABILITY.md", lint::kMetricTableBegin, lint::kMetricTableEnd);
  ASSERT_TRUE(section.file_found);
  ASSERT_TRUE(section.section_found);
  EXPECT_EQ(section.text, obs::render_metric_table());
}

TEST(SdlintMetrics, FindMetricSpecMatchesFamiliesByPrefix) {
  const obs::MetricSpec* exact = obs::find_metric_spec("mine.lines");
  ASSERT_NE(exact, nullptr);
  EXPECT_EQ(exact->name, "mine.lines");
  const obs::MetricSpec* family =
      obs::find_metric_spec("mine.diagnostics.rotation-gap");
  ASSERT_NE(family, nullptr);
  EXPECT_EQ(family->name, "mine.diagnostics.<kind>");
  EXPECT_EQ(obs::find_metric_spec("mine.diagnostics."), nullptr);
  EXPECT_EQ(obs::find_metric_spec("no.such.metric"), nullptr);
}

TEST(SdlintMetrics, CatalogRegistrationRejectsKindMismatch) {
  EXPECT_THROW((void)obs::catalog_gauge(obs::metric::kMineLines),
               std::logic_error);
  EXPECT_THROW((void)obs::catalog_counter(obs::metric::kMineDiagnostics),
               std::logic_error);  // family registered without a suffix
}

// --- the diag check ----------------------------------------------------------

TEST(SdlintDiag, DocDriftFires) {
  EXPECT_NE(doc_drift_detail("diag-doc-drift", "diag.doc-drift")
                .find("line 6 is '| `rotation-gap` | 1 |"),
            std::string::npos);
}

TEST(SdlintDiag, MissingDocFires) {
  EXPECT_NE(doc_drift_detail("diag-doc-missing", "diag.doc-drift")
                .find("not found"),
            std::string::npos);
}

TEST(SdlintDiag, CommittedDocTableIsExactlyTheRenderedTable) {
  // The kinds table is rendered from code, not hand-maintained: the
  // committed text between the markers must be byte-identical to it.
  const lint::DocSection section = lint::load_doc_section(
      "INTERNALS.md", lint::kDiagTableBegin, lint::kDiagTableEnd);
  ASSERT_TRUE(section.file_found);
  ASSERT_TRUE(section.section_found);
  EXPECT_EQ(section.text, lint::render_diag_kind_table());
}

TEST(SdlintDiag, EveryRealKindIsMutatorCoveredOrExempt) {
  // The build checks this beside the class table; the runtime form pins
  // the two public lookups to it.
  for (const logging::DiagnosticKindSpec& row : logging::diagnostic_kinds()) {
    EXPECT_NE(checker::mutation_classes_for(row.kind).empty(),
              !checker::runtime_only_reason(row.kind).has_value())
        << row.name;
  }
}

TEST(SdlintDiag, MutationClassesForInvertsExpectedDiagnostic) {
  for (const checker::MutationClass cls : checker::all_mutation_classes()) {
    const auto expected = checker::expected_diagnostic(cls);
    if (!expected) continue;
    const auto classes = checker::mutation_classes_for(*expected);
    EXPECT_NE(std::find(classes.begin(), classes.end(), cls), classes.end())
        << checker::mutation_class_name(cls);
  }
}

// --- doc_sources -------------------------------------------------------------

TEST(SdlintDocSources, MissingMarkersReportedNotSilent) {
  const lint::DocSection section = lint::load_doc_section(
      "OBSERVABILITY.md", "<!-- NO SUCH MARKER -->", "<!-- NOR THIS -->");
  EXPECT_TRUE(section.file_found);
  EXPECT_FALSE(section.section_found);
}

// --- introspection surfaces --------------------------------------------------

TEST(SdlintIntrospection, ThreeMachinesAreRegistered) {
  const auto machines = yarn::machine_descriptors();
  ASSERT_EQ(machines.size(), 3u);
  EXPECT_EQ(machines[0].name, "RMAppImpl");
  EXPECT_EQ(machines[1].name, "RMContainerImpl");
  EXPECT_EQ(machines[2].name, "ContainerImpl");
}

TEST(SdlintIntrospection, RenderTemplateLeavesUnknownSlotsVerbatim) {
  const std::string out = contract::render_template(
      "keep {this} but fill {that}", {{"that", "X"}});
  EXPECT_EQ(out, "keep {this} but fill X");
}

TEST(SdlintIntrospection, CollectPlaceholdersFindsAllSlots) {
  const auto slots =
      contract::collect_placeholders("{a} then {b_c} not {a}");
  ASSERT_EQ(slots.size(), 3u);
  EXPECT_EQ(slots[0], "a");
  EXPECT_EQ(slots[1], "b_c");
  EXPECT_EQ(slots[2], "a");
}

TEST(SdlintIntrospection, MatchingRulesIsExactlyOneForStartAllo) {
  const auto rules = checker::matching_rules(
      "YarnAllocator",
      "SDC START_ALLO requesting 4 executor containers, each "
      "<memory:1024, vCores:1>");
  ASSERT_EQ(rules.size(), 1u);
  EXPECT_EQ(rules[0]->emits, checker::EventKind::kStartAllo);
}

TEST(SdlintIntrospection, ComposedCorpusMinesAllFourteenTable1Kinds) {
  // The coverage check passing implies this, but assert the positive
  // form directly: compose, mine, count distinct Table-I kinds.
  std::vector<Finding> findings;
  const std::span<const contract::MilestoneSpec> groups[] = {
      yarn::yarn_milestones(), spark::spark_milestones(),
      workloads::mr_milestones()};
  const auto corpus =
      lint::compose_corpus(yarn::machine_descriptors(), groups, findings);
  EXPECT_TRUE(findings.empty());
  std::vector<bool> seen(15, false);
  for (const auto& stream : corpus) {
    for (const auto& event :
         checker::mine_lines(stream.name, stream.lines).events) {
      const std::int32_t number = checker::table1_number(event.kind);
      if (number > 0) seen[static_cast<std::size_t>(number)] = true;
    }
  }
  for (std::int32_t number = 1; number <= 14; ++number) {
    EXPECT_TRUE(seen[static_cast<std::size_t>(number)])
        << "Table I message " << number << " not mined";
  }
}

// --- register-phrase reconciliation regressions ------------------------------
// The extractor once let both driver classes match both frameworks'
// register phrasings, which made each cross pairing a dead pattern and
// double-counted lines mentioning both.  The rules are now split
// per-framework; these tests pin that with the real miner on rendered
// sample lines.

std::string log4j(std::string_view clazz, std::string_view message) {
  return "2017-07-03 16:40:00,123 INFO  " + std::string(clazz) + ": " +
         std::string(message);
}

TEST(RegisterPhraseRegression, SparkLineExtractsExactlyOneRegister) {
  const auto mined = checker::mine_lines(
      "driver.log",
      std::vector<std::string>{
          log4j(spark::kAmClass, "ApplicationAttemptId: "
                                 "appattempt_1499100000000_0001_000001"),
          log4j(spark::kAmClass, std::string(
                                     spark::kDriverRegisterLine.format))});
  const auto registers = std::count_if(
      mined.events.begin(), mined.events.end(), [](const auto& e) {
        return e.kind == checker::EventKind::kDriverRegister;
      });
  EXPECT_EQ(registers, 1);
}

TEST(RegisterPhraseRegression, MrLineExtractsExactlyOneRegister) {
  const auto mined = checker::mine_lines(
      "mram.log",
      std::vector<std::string>{
          log4j(workloads::kMrAmClass,
                "Created MRAppMaster for application "
                "appattempt_1499100000000_0001_000001"),
          log4j(workloads::kMrAmClass,
                std::string(workloads::kMrAmRegister.format))});
  const auto registers = std::count_if(
      mined.events.begin(), mined.events.end(), [](const auto& e) {
        return e.kind == checker::EventKind::kDriverRegister;
      });
  EXPECT_EQ(registers, 1);
}

TEST(RegisterPhraseRegression, CrossFrameworkPhrasesAreDeadPatterns) {
  // The MR phrasing under the Spark class (and vice versa) must not
  // extract: each framework emits only its own phrasing, so the old
  // cross pairings were unreachable patterns sdlint now forbids.
  EXPECT_TRUE(checker::matching_rules("ApplicationMaster",
                                      "Registering with the ResourceManager")
                  .empty());
  EXPECT_TRUE(checker::matching_rules("MRAppMaster",
                                      "Registering the ApplicationMaster "
                                      "with the ResourceManager")
                  .empty());
}

TEST(RegisterPhraseRegression, BothPhrasesInOneLineCountOnce) {
  // A pathological line containing both phrasings must produce exactly
  // one event, not two (the old OR-of-phrases risked ambiguity).
  const auto rules = checker::matching_rules(
      "ApplicationMaster",
      "Registering the ApplicationMaster with the ResourceManager after "
      "Registering with the ResourceManager retry");
  EXPECT_EQ(rules.size(), 1u);
}

}  // namespace
}  // namespace sdc
