#include "sdlint/prom_check.hpp"

#include <map>
#include <string>
#include <utility>

#include "logging/diagnostics.hpp"
#include "obs/http_server.hpp"
#include "obs/prom_export.hpp"
#include "sdchecker/report.hpp"

namespace sdc::lint {
namespace {

/// One exposed name: the registry spelling plus where it came from, so
/// findings can say which row (or which family member) is at fault.
struct ExposedName {
  std::string registry_name;
  std::string origin;  // catalog row name, with the member spelled out
  obs::MetricKind kind = obs::MetricKind::kCounter;
};

const FamilySuffixes* find_suffixes(const PromCheckInputs& inputs,
                                    std::string_view family) {
  for (const FamilySuffixes& entry : inputs.suffixes) {
    if (entry.family == family) return &entry;
  }
  return nullptr;
}

/// Expands the catalog into the full set of names the renderer can
/// expose: plain rows verbatim, family rows once per known suffix.
/// Unknown families produce prom.family-unlisted and per-suffix mangling
/// failures produce prom.suffix-unsafe, right here where the member name
/// is assembled.
std::vector<ExposedName> expand_names(const PromCheckInputs& inputs,
                                      std::vector<Finding>& findings) {
  std::vector<ExposedName> names;
  for (const obs::MetricSpec& row : inputs.catalog) {
    if (!row.is_family()) {
      names.push_back(
          {std::string(row.name), std::string(row.name), row.kind});
      continue;
    }
    const FamilySuffixes* members = find_suffixes(inputs, row.name);
    if (members == nullptr) {
      findings.push_back(make_finding(
          "prom.family-unlisted", std::string(row.name),
          "dynamic-suffix family has no member vocabulary registered with "
          "the prom check; its members' Prometheus names are unchecked "
          "(add the suffix list to check_real_prom)"));
      continue;
    }
    for (const std::string& suffix : members->suffixes) {
      const std::string member =
          std::string(row.family_prefix()) + suffix;
      if (!obs::prom_name_strict(member).has_value()) {
        findings.push_back(make_finding(
            "prom.suffix-unsafe", member,
            "member of family '" + std::string(row.name) +
                "' does not mangle to a valid Prometheus name (suffix '" +
                suffix + "')"));
        continue;
      }
      names.push_back({member,
                       std::string(row.name) + " member '" + suffix + "'",
                       row.kind});
    }
  }
  return names;
}

}  // namespace

std::vector<Finding> check_prom(const PromCheckInputs& inputs) {
  std::vector<Finding> findings;
  const std::vector<ExposedName> names = expand_names(inputs, findings);

  // Mangling must be total (prom.invalid-name) and injective
  // (prom.duplicate-name) over every exposable name.
  std::map<std::string, const ExposedName*> mangled;
  for (const ExposedName& name : names) {
    const auto prom = obs::prom_name_strict(name.registry_name);
    if (!prom.has_value()) {
      findings.push_back(make_finding(
          "prom.invalid-name", name.registry_name,
          "catalog row '" + name.origin +
              "' does not mangle to a valid Prometheus name "
              "([a-zA-Z_:][a-zA-Z0-9_:]*, '.' and '-' mapped to '_')"));
      continue;
    }
    const auto [it, inserted] = mangled.emplace(*prom, &name);
    if (!inserted) {
      findings.push_back(make_finding(
          "prom.duplicate-name", name.registry_name,
          "mangles to Prometheus name '" + *prom + "', same as '" +
              it->second->registry_name + "' (from " + it->second->origin +
              ") — the exposition would merge two distinct instruments"));
    }
  }

  // Histograms expose three extra series; none may shadow another
  // metric's name.
  for (const auto& [prom, name] : mangled) {
    if (name->kind != obs::MetricKind::kHistogram) continue;
    for (const std::string_view series : {"_bucket", "_sum", "_count"}) {
      const std::string derived = prom + std::string(series);
      const auto hit = mangled.find(derived);
      if (hit != mangled.end()) {
        findings.push_back(make_finding(
            "prom.series-collision", name->registry_name,
            "histogram series '" + derived + "' collides with metric '" +
                hit->second->registry_name + "' (from " +
                hit->second->origin + ")"));
      }
    }
  }
  return findings;
}

std::vector<Finding> check_real_prom() {
  // The production suffix vocabularies, one per dynamic-suffix family in
  // the catalog.  A new family added without a row here trips
  // prom.family-unlisted, which is the point: the member set must be
  // enumerable at lint time for the mangling guarantee to mean anything.
  static const std::vector<FamilySuffixes> kSuffixes = [] {
    std::vector<FamilySuffixes> out;

    FamilySuffixes diag{"mine.diagnostics.<kind>", {}};
    for (const logging::DiagnosticKindSpec& kind :
         logging::diagnostic_kinds()) {
      diag.suffixes.emplace_back(kind.name);
    }
    out.push_back(std::move(diag));

    FamilySuffixes delay{"sdc.delay.<component>", {}};
    for (const checker::DelayComponentSpec& spec :
         checker::delay_component_specs()) {
      delay.suffixes.emplace_back(spec.name);
    }
    out.push_back(std::move(delay));

    FamilySuffixes endpoints{"obs.http.latency_ms.<endpoint>", {}};
    for (const std::string_view label : obs::kHttpEndpointLabels) {
      endpoints.suffixes.emplace_back(label);
    }
    out.push_back(std::move(endpoints));

    FamilySuffixes errors{"obs.http.errors.<class>", {}};
    for (const std::string_view error_class : obs::kHttpErrorClasses) {
      errors.suffixes.emplace_back(error_class);
    }
    out.push_back(std::move(errors));

    return out;
  }();

  PromCheckInputs inputs;
  inputs.catalog = obs::metric_catalog();
  inputs.suffixes = kSuffixes;
  return check_prom(inputs);
}

}  // namespace sdc::lint
