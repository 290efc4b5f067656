// Locating and slicing the committed docs sdlint checks against.
//
// The metric and diagnostic tables in docs/ are contract surfaces, not
// prose: each lives between a BEGIN/END marker pair so sdlint can
// extract exactly the checked region and compare it, byte for byte, to
// the code's rendering of the table.  The repo root is found by walking
// up from the working directory (sdlint runs from build trees at
// arbitrary depth); the `SDC_DOCS_DIR` environment variable overrides
// the search for out-of-tree runs.  A missing file or marker pair is
// reported through the flags here — callers turn it into a finding,
// never a silent skip.
#pragma once

#include <optional>
#include <string>
#include <string_view>

namespace sdc::lint {

/// One extracted marker-delimited doc region.
struct DocSection {
  /// The doc file was found (walk-up or SDC_DOCS_DIR).
  bool file_found = false;
  /// Both markers were found, in order.
  bool section_found = false;
  /// Absolute path of the located file ("" when not found).
  std::string path;
  /// Text strictly between the marker lines.
  std::string text;
};

/// Loads the region of `docs/<file_name>` between `begin_marker` and
/// `end_marker` (each matched as a whole line, markers excluded).
DocSection load_doc_section(std::string_view file_name,
                            std::string_view begin_marker,
                            std::string_view end_marker);

/// Names the first line at which a committed table differs from the
/// code's rendering of it: "<table> line N is '<doc line>', <source>
/// renders '<rendered line>'", where a side that has ended reads "the end
/// of the table".  nullopt when the two are equal byte for byte.
std::optional<std::string> first_line_difference(std::string_view table,
                                                 std::string_view source,
                                                 std::string_view doc,
                                                 std::string_view rendered);

}  // namespace sdc::lint
