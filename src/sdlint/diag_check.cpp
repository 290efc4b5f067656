#include "sdlint/diag_check.hpp"

#include "logging/diagnostics.hpp"
#include "sdchecker/corpus_mutator.hpp"

namespace sdc::lint {

std::string render_diag_kind_table() {
  std::string out =
      "| kind | severity | trigger | fuzz coverage |\n"
      "|---|---|---|---|\n";
  for (const logging::DiagnosticKindSpec& row : logging::diagnostic_kinds()) {
    out += "| `";
    out += row.name;
    out += "` | " + std::to_string(row.severity) + " | ";
    out += row.trigger;
    out += " | ";
    if (const auto reason = checker::runtime_only_reason(row.kind)) {
      out += "runtime-only (";
      out += *reason;
      out += ')';
    } else {
      const char* separator = "`";
      for (const checker::MutationClass cls :
           checker::mutation_classes_for(row.kind)) {
        out += separator;
        out += checker::mutation_class_name(cls);
        separator = "`, `";
      }
      out += '`';
    }
    out += " |\n";
  }
  return out;
}

std::vector<Finding> check_diagnostics(const DocSection& section) {
  const std::string subject = "docs/INTERNALS.md";
  if (!section.file_found || !section.section_found) {
    return {make_finding(
        "diag.doc-drift", subject,
        "diagnostic-kind table (between the BEGIN/END markers) not found")};
  }
  if (const auto difference =
          first_line_difference("diagnostic-kind table", "the code",
                                section.text, render_diag_kind_table())) {
    return {make_finding("diag.doc-drift", subject, *difference)};
  }
  return {};
}

std::vector<Finding> check_real_diagnostics() {
  return check_diagnostics(
      load_doc_section("INTERNALS.md", kDiagTableBegin, kDiagTableEnd));
}

}  // namespace sdc::lint
