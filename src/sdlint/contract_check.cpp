#include "sdlint/contract_check.hpp"

#include <algorithm>

#include "common/strings.hpp"
#include "sdchecker/events.hpp"
#include "spark/log_contract.hpp"
#include "workloads/log_contract.hpp"
#include "yarn/log_contract.hpp"

namespace sdc::lint {
namespace {

/// Canonical placeholder values: well-formed IDs the extractor's id
/// parsers accept, and innocuous literals for everything else.
struct CanonicalEntry {
  std::string_view name;
  std::string_view value;
};

constexpr CanonicalEntry kCanonicalValues[] = {
    {"app", "application_1499100000000_0001"},
    {"container", "container_1499100000000_0001_01_000001"},
    {"attempt", "appattempt_1499100000000_0001_000001"},
    {"host", "node-0001"},
    {"count", "4"},
    {"resource", "<memory:1024, vCores:1>"},
    {"tid", "0"},
    {"executor_id", "1"},
    {"pid", "20001"},
    {"files", "2"},
    {"parallel", "true"},
    {"index", "0"},
    {"stage", "0"},
    {"task_kind", "map"},
    {"key", "spark-pkg-500"},
    {"seq", "1"},
};

}  // namespace

std::string_view canonical_value(std::string_view placeholder,
                                 std::string_view id_kind) {
  if (placeholder == "id") {
    // Machine line formats use the generic {id}; the descriptor says
    // which global id the machine is keyed on.
    if (id_kind == "application") return canonical_value("app");
    if (id_kind == "container") return canonical_value("container");
    return {};
  }
  for (const CanonicalEntry& entry : kCanonicalValues) {
    if (entry.name == placeholder) return entry.value;
  }
  return {};
}

std::string render_canonical(std::string_view format, std::string_view subject,
                             std::string_view id_kind,
                             std::vector<Finding>& findings) {
  std::vector<contract::Placeholder> values;
  for (const std::string_view name : contract::collect_placeholders(format)) {
    // {from}/{to}/{event} are machine-renderer slots, never canonical.
    const std::string_view value = canonical_value(name, id_kind);
    if (value.empty()) {
      findings.push_back(make_finding(
          "contract.unknown-placeholder", std::string(subject),
          "format references {" + std::string(name) +
              "}, which has no canonical value declared in sdlint"));
      continue;
    }
    values.push_back({name, value});
  }
  return contract::render_template(format, values);
}

void declare_machine_lines(const yarn::MachineDescriptor& machine,
                           std::vector<DeclaredLine>& lines,
                           std::vector<Finding>& findings) {
  const std::string_view id =
      canonical_value("id", machine.id_kind);
  if (id.empty()) {
    findings.push_back(make_finding(
        "contract.unknown-placeholder", std::string(machine.name),
        "machine id_kind \"" + std::string(machine.id_kind) +
            "\" has no canonical id value"));
    return;
  }
  for (const auto& edge : machine.edges) {
    if (edge.from >= machine.state_names.size() ||
        edge.to >= machine.state_names.size()) {
      continue;  // reported by the machine check
    }
    DeclaredLine line;
    line.name = std::string(machine.name) + " " +
                std::string(machine.state_names[edge.from]) + " -> " +
                std::string(machine.state_names[edge.to]);
    line.logger = std::string(machine.logger_class);
    line.message = contract::render_template(
        machine.line_format,
        {{"id", id},
         {"from", machine.state_names[edge.from]},
         {"to", machine.state_names[edge.to]},
         {"event", edge.event}});
    line.emits = std::string(edge.emits);
    lines.push_back(std::move(line));
  }
}

void declare_milestone_lines(std::span<const contract::MilestoneSpec> specs,
                             std::vector<DeclaredLine>& lines,
                             std::vector<Finding>& findings) {
  for (const contract::MilestoneSpec& spec : specs) {
    DeclaredLine line;
    line.name = std::string(spec.name);
    line.logger = std::string(spec.logger_class);
    line.message = render_canonical(spec.format, spec.name, "", findings);
    line.emits = std::string(spec.emits);
    lines.push_back(std::move(line));
  }
}

std::vector<DeclaredLine> declared_lines(std::vector<Finding>& findings) {
  std::vector<DeclaredLine> lines;
  for (const yarn::MachineDescriptor& machine : yarn::machine_descriptors()) {
    declare_machine_lines(machine, lines, findings);
  }
  declare_milestone_lines(yarn::yarn_milestones(), lines, findings);
  declare_milestone_lines(spark::spark_milestones(), lines, findings);
  declare_milestone_lines(workloads::mr_milestones(), lines, findings);
  return lines;
}

std::vector<Finding> check_contract(
    std::span<const DeclaredLine> lines,
    std::span<const checker::ExtractorRule> rules,
    std::span<const checker::ClassKind> classes) {
  std::vector<Finding> findings;
  const auto class_known = [&](std::string_view klass) {
    return std::any_of(classes.begin(), classes.end(),
                       [&](const auto& c) { return c.klass == klass; });
  };

  std::vector<bool> rule_hit(rules.size(), false);
  for (const DeclaredLine& line : lines) {
    const std::string_view klass = checker::short_class_name(line.logger);
    if (!class_known(klass)) {
      findings.push_back(make_finding(
          "contract.unknown-class", line.name,
          "logger class " + std::string(klass) +
              " is not in the miner's classifier table — lines from it "
              "would not classify their stream"));
    }
    std::vector<std::size_t> matches;
    for (std::size_t i = 0; i < rules.size(); ++i) {
      if (rules[i].klass == klass &&
          checker::rule_matches(rules[i], line.message)) {
        matches.push_back(i);
        rule_hit[i] = true;
      }
    }
    if (line.emits.empty()) {
      // Informational lines must stay silent.
      for (const std::size_t i : matches) {
        findings.push_back(make_finding(
            "contract.noisy", line.name,
            "informational line \"" + line.message +
                "\" matches extractor rule " + std::string(rules[i].klass) +
                "/" + std::string(rules[i].token) + " (emits " +
                std::string(
                    checker::event_name(rules[i].emits)) +
                ") — it would masquerade as a scheduling milestone"));
      }
      continue;
    }
    const auto expected = checker::event_from_name(line.emits);
    if (!expected) {
      findings.push_back(make_finding(
          "contract.unknown-event", line.name,
          "declares emits \"" + line.emits +
              "\", which is not a known miner event name"));
      continue;
    }
    if (matches.empty()) {
      findings.push_back(make_finding(
          "contract.no-match", line.name,
          "emitter line \"" + line.message +
              "\" (class " + std::string(klass) +
              ") matches no extractor rule — the miner would drop " +
              line.emits));
      continue;
    }
    if (matches.size() > 1) {
      std::string which;
      for (const std::size_t i : matches) {
        if (!which.empty()) which += ", ";
        which += std::string(rules[i].klass) + "/" +
                 std::string(rules[i].token);
      }
      findings.push_back(make_finding(
          "contract.ambiguous", line.name,
          "emitter line matches " + std::to_string(matches.size()) +
              " extractor rules (" + which + ")"));
      continue;
    }
    const checker::ExtractorRule& rule = rules[matches.front()];
    if (rule.emits != *expected) {
      findings.push_back(make_finding(
          "contract.wrong-event", line.name,
          "emitter declares " + line.emits + " but the matching rule " +
              std::string(rule.klass) + "/" + std::string(rule.token) +
              " produces " + std::string(checker::event_name(rule.emits))));
      continue;
    }
    // End-to-end: the rule must actually extract (id parsing included).
    checker::ParsedLine parsed;
    parsed.epoch_ms = 1499100000123;
    parsed.level = "INFO";
    parsed.logger = line.logger;
    parsed.message = line.message;
    checker::EventBatch extracted;
    if (!checker::apply_rule(rule, parsed, 0, 1, extracted)) {
      findings.push_back(make_finding(
          "contract.no-id", line.name,
          "rule " + std::string(rule.klass) + "/" + std::string(rule.token) +
              " matches but fails to extract its required id from \"" +
              line.message + "\""));
    } else if (extracted.kind_at(0) != *expected) {
      findings.push_back(make_finding(
          "contract.wrong-event", line.name,
          "extraction produced " +
              std::string(checker::event_name(extracted.kind_at(0))) +
              " instead of " + line.emits));
    }
  }

  for (std::size_t i = 0; i < rules.size(); ++i) {
    if (!class_known(rules[i].klass)) {
      findings.push_back(make_finding(
          "contract.rule-unknown-class",
          std::string(rules[i].klass) + "/" + std::string(rules[i].token),
          "rule's logger class is not in the classifier table"));
    }
    if (!rule_hit[i]) {
      findings.push_back(make_finding(
          "contract.dead-rule",
          std::string(rules[i].klass) + "/" + std::string(rules[i].token),
          "no declared emitter line matches this extractor rule — it is "
          "dead weight (emits " +
              std::string(checker::event_name(rules[i].emits)) + ")"));
    }
  }
  return findings;
}

std::vector<Finding> check_real_contract() {
  std::vector<Finding> findings;
  const std::vector<DeclaredLine> lines = declared_lines(findings);
  append_findings(findings,
                  check_contract(lines, checker::extractor_rules(),
                                 checker::class_kinds()));
  return findings;
}

}  // namespace sdc::lint
