// Check (f): the diagnostic-kind table in docs/INTERNALS.md is the
// code's rendering of the kind vocabulary.
//
// Each row comes from code: a kind's name, severity and trigger from
// its `logging::DiagnosticKindSpec` row, and its fuzz coverage from the
// corpus mutator (the classes `checker::mutation_classes_for` the kind,
// or `checker::runtime_only_reason`).  The committed marker section
// must equal that rendering byte for byte (diag.doc-drift, naming the
// first line that differs, or the missing section).  The rules the
// rows keep among themselves (one row per kind in enum order, distinct
// names, severity 0-2, each kind fuzz-covered or runtime-only but not
// both) are compile-time checks beside the rows, so a broken row fails
// the build before sdlint runs.
#pragma once

#include <string>
#include <string_view>
#include <vector>

#include "sdlint/doc_sources.hpp"
#include "sdlint/findings.hpp"

namespace sdc::lint {

/// Marker lines bracketing the kinds table in docs/INTERNALS.md.
inline constexpr std::string_view kDiagTableBegin =
    "<!-- BEGIN DIAGNOSTIC KIND TABLE (rendered from code; checked by "
    "sdlint diag.doc-drift) -->";
inline constexpr std::string_view kDiagTableEnd =
    "<!-- END DIAGNOSTIC KIND TABLE -->";

/// The kinds table as markdown: `| kind | severity | trigger | fuzz
/// coverage |`, one row per `logging::diagnostic_kinds()` row.
std::string render_diag_kind_table();

/// diag.doc-drift over a loaded marker section: missing, or not
/// `render_diag_kind_table()` byte for byte.
std::vector<Finding> check_diagnostics(const DocSection& section);

/// check_diagnostics over the committed docs/INTERNALS.md table.
std::vector<Finding> check_real_diagnostics();

}  // namespace sdc::lint
