#include "sdlint/doc_sources.hpp"

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>

namespace sdc::lint {
namespace {

namespace fs = std::filesystem;

/// docs/<file_name>, from SDC_DOCS_DIR or by walking up from cwd.
fs::path locate_doc(std::string_view file_name) {
  if (const char* override_dir = std::getenv("SDC_DOCS_DIR")) {
    const fs::path candidate = fs::path(override_dir) / file_name;
    return fs::exists(candidate) ? candidate : fs::path{};
  }
  std::error_code ec;
  for (fs::path dir = fs::current_path(ec); !ec && !dir.empty();
       dir = dir.parent_path()) {
    const fs::path candidate = dir / "docs" / file_name;
    if (fs::exists(candidate, ec)) return candidate;
    if (dir == dir.root_path()) break;
  }
  return {};
}

std::string_view trim(std::string_view s) {
  while (!s.empty() && (s.front() == ' ' || s.front() == '\t')) {
    s.remove_prefix(1);
  }
  while (!s.empty() &&
         (s.back() == ' ' || s.back() == '\t' || s.back() == '\r')) {
    s.remove_suffix(1);
  }
  return s;
}

/// Takes the next line off `text`, its '\n' included ("" at the end).
std::string_view take_line(std::string_view& text) {
  const std::size_t eol = text.find('\n');
  const std::size_t length = eol == std::string_view::npos ? text.size()
                                                           : eol + 1;
  const std::string_view line = text.substr(0, length);
  text.remove_prefix(length);
  return line;
}

std::string quote_line(std::string_view line) {
  if (line.empty()) return "the end of the table";
  if (line.back() == '\n') line.remove_suffix(1);
  std::string quoted = "'";
  quoted += line;
  quoted += '\'';
  return quoted;
}

}  // namespace

DocSection load_doc_section(std::string_view file_name,
                            std::string_view begin_marker,
                            std::string_view end_marker) {
  DocSection section;
  const fs::path path = locate_doc(file_name);
  if (path.empty()) return section;
  std::ifstream in(path);
  if (!in) return section;
  section.file_found = true;
  section.path = path.string();

  std::string line;
  bool inside = false;
  std::ostringstream body;
  while (std::getline(in, line)) {
    const std::string_view stripped = trim(line);
    if (!inside) {
      if (stripped == begin_marker) inside = true;
      continue;
    }
    if (stripped == end_marker) {
      section.section_found = true;
      section.text = body.str();
      return section;
    }
    body << line << '\n';
  }
  return section;  // end marker never seen: section_found stays false
}

std::optional<std::string> first_line_difference(std::string_view table,
                                                 std::string_view source,
                                                 std::string_view doc,
                                                 std::string_view rendered) {
  for (std::size_t line = 1; !doc.empty() || !rendered.empty(); ++line) {
    const std::string_view have = take_line(doc);
    const std::string_view want = take_line(rendered);
    if (have == want) continue;
    std::string out(table);
    out += " line " + std::to_string(line) + " is " + quote_line(have) + ", ";
    out += source;
    out += " renders " + quote_line(want);
    return out;
  }
  return std::nullopt;
}

}  // namespace sdc::lint
