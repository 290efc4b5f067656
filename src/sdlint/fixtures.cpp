#include "sdlint/fixtures.hpp"

#include "obs/metric_catalog.hpp"
#include "sdlint/contract_check.hpp"
#include "yarn/log_contract.hpp"
#include "sdlint/coverage_check.hpp"
#include "sdlint/diag_check.hpp"
#include "sdlint/machine_check.hpp"
#include "sdlint/metrics_check.hpp"
#include "sdlint/prom_check.hpp"
#include "sdlint/runner.hpp"

namespace sdc::lint {
namespace {

using yarn::MachineDescriptor;

// --- broken state machines ---------------------------------------------------
// A tiny three-state machine (INIT, MID, END) broken a different way per
// fixture.  State names and edges are static so the descriptors can hand
// out string_views/spans safely.

constexpr std::string_view kTinyStates[] = {"INIT", "MID", "END"};
constexpr std::size_t kTinyTerminals[] = {2};
constexpr std::string_view kTinyFormat =
    "{id} State change from {from} to {to} on event = {event}";
constexpr std::string_view kTinyLogger = "sdlint.fixture.TinyMachine";

// INIT -> END only: MID is unreachable, and its outgoing edge is dead.
constexpr MachineDescriptor::Edge kUnreachableEdges[] = {
    {0, 2, "FINISH", ""},
    {1, 2, "NEVER", ""},
};
constexpr MachineDescriptor kUnreachableMachine{
    "TinyMachine", kTinyLogger, kTinyFormat, "application",
    kTinyStates,   0,           kTinyTerminals, kUnreachableEdges};

// Same (from, event) pair leads to two different states.
constexpr MachineDescriptor::Edge kNondetEdges[] = {
    {0, 1, "GO", ""},
    {0, 2, "GO", ""},
    {1, 2, "FINISH", ""},
};
constexpr MachineDescriptor kNondetMachine{
    "TinyMachine", kTinyLogger, kTinyFormat, "application",
    kTinyStates,   0,           kTinyTerminals, kNondetEdges};

// The same edge declared twice.
constexpr MachineDescriptor::Edge kDuplicateEdges[] = {
    {0, 1, "GO", ""},
    {0, 1, "GO_AGAIN", ""},
    {1, 2, "FINISH", ""},
};
constexpr MachineDescriptor kDuplicateMachine{
    "TinyMachine", kTinyLogger, kTinyFormat, "application",
    kTinyStates,   0,           kTinyTerminals, kDuplicateEdges};

// END is declared terminal but has a way out.
constexpr MachineDescriptor::Edge kTerminalOutEdges[] = {
    {0, 1, "GO", ""},
    {1, 2, "FINISH", ""},
    {2, 1, "ZOMBIE", ""},
};
constexpr MachineDescriptor kTerminalOutMachine{
    "TinyMachine", kTinyLogger, kTinyFormat, "application",
    kTinyStates,   0,           kTinyTerminals, kTerminalOutEdges};

// MID is reachable but has no outgoing edge and is not terminal.
constexpr MachineDescriptor::Edge kDeadEndEdges[] = {
    {0, 1, "GO", ""},
    {0, 2, "FINISH", ""},
};
constexpr MachineDescriptor kDeadEndMachine{
    "TinyMachine", kTinyLogger, kTinyFormat, "application",
    kTinyStates,   0,           kTinyTerminals, kDeadEndEdges};

// An emits annotation naming an event the miner does not know.
constexpr MachineDescriptor::Edge kBadEmitEdges[] = {
    {0, 1, "GO", "NOT_A_REAL_EVENT"},
    {1, 2, "FINISH", ""},
};
constexpr MachineDescriptor kBadEmitMachine{
    "TinyMachine", kTinyLogger, kTinyFormat, "application",
    kTinyStates,   0,           kTinyTerminals, kBadEmitEdges};

// --- broken emitter/extractor contracts --------------------------------------

std::vector<Finding> contract_with_lines(std::vector<DeclaredLine> lines) {
  return check_contract(lines, checker::extractor_rules(),
                        checker::class_kinds());
}

/// Format drift: the emitter renamed its marker, the rule still expects
/// the old one — the miner would silently drop START_ALLO.
std::vector<Finding> run_contract_drift() {
  return contract_with_lines(
      {{"fixture.start-allo-drift",
        "org.apache.spark.deploy.yarn.YarnAllocator",
        "SDC BEGIN_ALLO requesting 4 executor containers", "START_ALLO"}});
}

/// Ambiguity: one line matches two rules of its class.
std::vector<Finding> run_contract_ambiguous() {
  return contract_with_lines(
      {{"fixture.allo-ambiguous",
        "org.apache.spark.deploy.yarn.YarnAllocator",
        "SDC START_ALLO after END_ALLO replay", "START_ALLO"}});
}

/// Wrong event: the only matching rule produces a different kind than
/// the emitter declares.
std::vector<Finding> run_contract_wrong_event() {
  return contract_with_lines(
      {{"fixture.allo-wrong-kind",
        "org.apache.spark.deploy.yarn.YarnAllocator",
        "SDC START_ALLO requesting 4 executor containers", "END_ALLO"}});
}

/// Missing id: a transition line without the application id the rule
/// must extract.
std::vector<Finding> run_contract_no_id() {
  return contract_with_lines(
      {{"fixture.submitted-no-id",
        "org.apache.hadoop.yarn.server.resourcemanager.rmapp.RMAppImpl",
        "State change from NEW_SAVING to SUBMITTED on event = APP_NEW_SAVED",
        "SUBMITTED"}});
}

/// Noisy informational line: declared silent but trips an extractor rule.
std::vector<Finding> run_contract_noisy() {
  return contract_with_lines(
      {{"fixture.noisy-info-line",
        "org.apache.spark.executor.CoarseGrainedExecutorBackend",
        "Heartbeat mentions Got assigned task 7 casually", ""}});
}

/// Orphan rule: with no declared emitter lines at all, every real rule
/// is dead — the check must notice.
std::vector<Finding> run_contract_dead_rule() {
  return contract_with_lines({});
}

/// Unknown logger class: the emitter logs under a class the classifier
/// has never heard of.
std::vector<Finding> run_contract_unknown_class() {
  return contract_with_lines(
      {{"fixture.unknown-class", "org.example.NewFangledService",
        "Something scheduling-critical happened", ""}});
}

// --- broken coverage ---------------------------------------------------------

/// Dropping the Spark milestones loses REGISTER/START_ALLO/END_ALLO/
/// FIRST_TASK and both FIRST_LOG anchors.
std::vector<Finding> run_coverage_missing() {
  const std::span<const contract::MilestoneSpec> groups[] = {
      yarn::yarn_milestones(),
  };
  return check_coverage(yarn::machine_descriptors(), groups);
}

// --- broken metric catalogs --------------------------------------------------
// A tiny two-row catalog (one counter, the sdc.delay histogram family),
// broken a different way per fixture.  The happy-path doc table is
// *generated* from the catalog, so only the seeded violation fires; the
// four doc fixtures drift the table at its end, past its end, inside a
// row and by losing it.

using obs::MetricKind;
using obs::MetricSpec;

constexpr MetricSpec kTinyCounter{"fixture.lines", MetricKind::kCounter,
                                  "lines", "fixture lines mined"};
constexpr MetricSpec kTinyDelay{"sdc.delay.<component>",
                                MetricKind::kHistogram, "ms",
                                "fixture delay samples"};
constexpr MetricSpec kTinyCatalog[] = {kTinyCounter, kTinyDelay};

/// Inputs that pass every metrics.* check: catalog-generated doc table,
/// a snapshot holding only cataloged instruments.
MetricsCheckInputs tiny_metrics_inputs(const std::string& doc_table,
                                       const obs::MetricsSnapshot* snapshot) {
  MetricsCheckInputs inputs;
  inputs.catalog = kTinyCatalog;
  inputs.snapshot = snapshot;
  inputs.doc_table = doc_table;
  return inputs;
}

/// Two catalog rows with one name.
std::vector<Finding> run_metrics_duplicate_spec() {
  static constexpr MetricSpec kDuplicated[] = {kTinyCounter, kTinyCounter,
                                               kTinyDelay};
  static const std::string doc = obs::render_metric_table(kDuplicated);
  MetricsCheckInputs inputs = tiny_metrics_inputs(doc, nullptr);
  inputs.catalog = kDuplicated;
  return check_metrics(inputs);
}

/// A catalog row the committed doc table does not carry (the acceptance
/// fixture: an undocumented metric must make sdlint exit nonzero); the
/// table ends a line early.
std::vector<Finding> run_metrics_undocumented() {
  static const std::string doc =
      obs::render_metric_table(std::span<const MetricSpec>(kTinyCatalog, 1));
  return check_metrics(tiny_metrics_inputs(doc, nullptr));
}

/// A doc table row for a metric the catalog does not declare, past the
/// rendered table's end.
std::vector<Finding> run_metrics_stale_doc() {
  static const std::string doc =
      obs::render_metric_table(kTinyCatalog) +
      "| `fixture.ghost` | counter | lines | documented but undeclared |\n";
  return check_metrics(tiny_metrics_inputs(doc, nullptr));
}

/// Doc row present but its kind cell drifted from the catalog.
std::vector<Finding> run_metrics_doc_drift() {
  static const std::string doc = [] {
    std::string table = obs::render_metric_table(kTinyCatalog);
    const std::size_t at = table.find("| counter |");
    return table.replace(at, 11, "| gauge |");
  }();
  return check_metrics(tiny_metrics_inputs(doc, nullptr));
}

/// The registry carries an instrument no catalog row matches.
std::vector<Finding> run_metrics_unknown_instrument() {
  static const std::string doc = obs::render_metric_table(kTinyCatalog);
  obs::MetricsSnapshot snapshot;
  snapshot.counters["fixture.rogue"] = 1;
  return check_metrics(tiny_metrics_inputs(doc, &snapshot));
}

/// A cataloged counter registered as a gauge.
std::vector<Finding> run_metrics_kind_mismatch() {
  static const std::string doc = obs::render_metric_table(kTinyCatalog);
  obs::MetricsSnapshot snapshot;
  snapshot.gauges["fixture.lines"] = 1;
  return check_metrics(tiny_metrics_inputs(doc, &snapshot));
}

/// An sdc.delay.* histogram with no delay-component catalog row.
std::vector<Finding> run_metrics_delay_unbound() {
  static const std::string doc = obs::render_metric_table(kTinyCatalog);
  obs::MetricsSnapshot snapshot;
  snapshot.histograms["sdc.delay.teleportation"] = {};
  return check_metrics(tiny_metrics_inputs(doc, &snapshot));
}

/// The doc table cannot be located at all.
std::vector<Finding> run_metrics_doc_missing() {
  MetricsCheckInputs inputs = tiny_metrics_inputs({}, nullptr);
  inputs.doc_found = false;
  return check_metrics(inputs);
}

// --- broken Prometheus mappings ----------------------------------------------
// Tiny catalogs handed to check_prom, each seeding one way the
// mechanical name mangling ('.'/'-' -> '_') stops being total or
// injective.

/// A name with a character the mangling has no mapping for.
std::vector<Finding> run_prom_invalid_name() {
  static constexpr MetricSpec kBadName[] = {
      {"fixture.bad%char", MetricKind::kCounter, "lines", "fixture"}};
  PromCheckInputs inputs;
  inputs.catalog = kBadName;
  return check_prom(inputs);
}

/// Two distinct registry names that collapse onto one Prometheus name.
std::vector<Finding> run_prom_duplicate_name() {
  static constexpr MetricSpec kColliding[] = {
      {"fixture.scrape-total", MetricKind::kCounter, "scrapes", "fixture"},
      {"fixture.scrape.total", MetricKind::kCounter, "scrapes", "fixture"}};
  PromCheckInputs inputs;
  inputs.catalog = kColliding;
  return check_prom(inputs);
}

/// A counter shadowing a histogram's implied `_count` series.
std::vector<Finding> run_prom_series_collision() {
  static constexpr MetricSpec kShadowed[] = {
      {"fixture.lat", MetricKind::kHistogram, "ms", "fixture"},
      {"fixture.lat.count", MetricKind::kCounter, "samples", "fixture"}};
  PromCheckInputs inputs;
  inputs.catalog = kShadowed;
  return check_prom(inputs);
}

constexpr MetricSpec kPromFamily[] = {
    {"fixture.errors.<class>", MetricKind::kCounter, "occurrences",
     "fixture family"}};

/// A family member whose suffix cannot be mangled (embedded space).
std::vector<Finding> run_prom_suffix_unsafe() {
  static const std::vector<FamilySuffixes> kUnsafe = {
      {"fixture.errors.<class>", {"bad class"}}};
  PromCheckInputs inputs;
  inputs.catalog = kPromFamily;
  inputs.suffixes = kUnsafe;
  return check_prom(inputs);
}

/// A family the check has no member vocabulary for.
std::vector<Finding> run_prom_family_unlisted() {
  PromCheckInputs inputs;
  inputs.catalog = kPromFamily;
  return check_prom(inputs);
}

// --- broken diagnostic-kind tables -------------------------------------------
// The real rendering with one cell edited, and no table at all.

/// A committed table whose severity cell drifted from the code.
std::vector<Finding> run_diag_doc_drift() {
  constexpr std::string_view kRow = "| `rotation-gap` | 2 |";
  std::string table = render_diag_kind_table();
  table.replace(table.find(kRow), kRow.size(), "| `rotation-gap` | 1 |");
  DocSection section;
  section.file_found = section.section_found = true;
  section.text = table;
  return check_diagnostics(section);
}

/// The doc table cannot be located at all.
std::vector<Finding> run_diag_doc_missing() {
  return check_diagnostics(DocSection{});
}

// --- fixture table -----------------------------------------------------------

std::vector<Finding> run_machine_unreachable() {
  return check_machine(kUnreachableMachine);
}
std::vector<Finding> run_machine_dead_transition() {
  return check_machine(kUnreachableMachine);
}
std::vector<Finding> run_machine_nondeterministic() {
  return check_machine(kNondetMachine);
}
std::vector<Finding> run_machine_duplicate() {
  return check_machine(kDuplicateMachine);
}
std::vector<Finding> run_machine_terminal_outgoing() {
  return check_machine(kTerminalOutMachine);
}
std::vector<Finding> run_machine_dead_end() {
  return check_machine(kDeadEndMachine);
}
std::vector<Finding> run_machine_unknown_event() {
  return check_machine(kBadEmitMachine);
}

constexpr Fixture kFixtures[] = {
    {"machine-unreachable-state", "machine.unreachable",
     &run_machine_unreachable},
    {"machine-dead-transition", "machine.dead-transition",
     &run_machine_dead_transition},
    {"machine-nondeterministic", "machine.nondeterministic",
     &run_machine_nondeterministic},
    {"machine-duplicate-transition", "machine.duplicate-transition",
     &run_machine_duplicate},
    {"machine-terminal-outgoing", "machine.terminal-outgoing",
     &run_machine_terminal_outgoing},
    {"machine-dead-end", "machine.dead-end", &run_machine_dead_end},
    {"machine-unknown-event", "machine.unknown-event",
     &run_machine_unknown_event},
    {"contract-format-drift", "contract.no-match", &run_contract_drift},
    {"contract-ambiguous-line", "contract.ambiguous",
     &run_contract_ambiguous},
    {"contract-wrong-event", "contract.wrong-event",
     &run_contract_wrong_event},
    {"contract-missing-id", "contract.no-id", &run_contract_no_id},
    {"contract-noisy-info-line", "contract.noisy", &run_contract_noisy},
    {"contract-orphan-rule", "contract.dead-rule", &run_contract_dead_rule},
    {"contract-unknown-class", "contract.unknown-class",
     &run_contract_unknown_class},
    {"coverage-missing-kind", "coverage.missing-kind",
     &run_coverage_missing},
    {"metrics-duplicate-spec", "metrics.duplicate-spec",
     &run_metrics_duplicate_spec},
    {"metrics-undocumented", "metrics.doc-drift",
     &run_metrics_undocumented},
    {"metrics-stale-doc", "metrics.doc-drift", &run_metrics_stale_doc},
    {"metrics-doc-drift", "metrics.doc-drift", &run_metrics_doc_drift},
    {"metrics-unknown-instrument", "metrics.unknown-instrument",
     &run_metrics_unknown_instrument},
    {"metrics-kind-mismatch", "metrics.kind-mismatch",
     &run_metrics_kind_mismatch},
    {"metrics-delay-unbound", "metrics.delay-unbound",
     &run_metrics_delay_unbound},
    {"metrics-doc-missing", "metrics.doc-drift", &run_metrics_doc_missing},
    {"prom-invalid-name", "prom.invalid-name", &run_prom_invalid_name},
    {"prom-duplicate-name", "prom.duplicate-name",
     &run_prom_duplicate_name},
    {"prom-series-collision", "prom.series-collision",
     &run_prom_series_collision},
    {"prom-suffix-unsafe", "prom.suffix-unsafe", &run_prom_suffix_unsafe},
    {"prom-family-unlisted", "prom.family-unlisted",
     &run_prom_family_unlisted},
    {"diag-doc-drift", "diag.doc-drift", &run_diag_doc_drift},
    {"diag-doc-missing", "diag.doc-drift", &run_diag_doc_missing},
};

}  // namespace

std::span<const Fixture> fixtures() { return kFixtures; }

std::vector<Finding> run_selftest() {
  std::vector<Finding> findings;
  for (const Fixture& fixture : fixtures()) {
    const std::vector<Finding> fired = fixture.run();
    if (!any_with_prefix(fired, fixture.expect_check)) {
      findings.push_back(make_finding(
          "selftest.silent", std::string(fixture.name),
          "seeded violation did not trigger " +
              std::string(fixture.expect_check) + " (got " +
              std::to_string(fired.size()) + " findings)"));
    }
  }
  // The linter must also pass the real tree, or the gate is useless.
  const std::vector<Finding> real = run_all_checks().findings;
  for (const Finding& finding : real) {
    findings.push_back(make_finding("selftest.dirty", finding.subject,
                                    "[" + finding.check + "] " +
                                        finding.detail));
  }
  return findings;
}

}  // namespace sdc::lint
