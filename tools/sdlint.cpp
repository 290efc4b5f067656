// sdlint — static contract checker for SDchecker's state machines and
// the emitter/extractor log protocol.  Runs at build/CI time with no
// cluster simulation: everything it needs is the `constexpr` tables the
// simulator and miner already compile against.
//
//   sdlint                run all checks, human diagnostics on stderr
//   sdlint --json         machine-readable report on stdout
//   sdlint --selftest     prove every check fires on the seeded-violation
//                         corpus, then require the real tables to be clean
//   sdlint --metric-table print the generated docs/OBSERVABILITY.md
//                         metric table (paste between the BEGIN/END
//                         markers to fix a metrics.doc-drift finding)
//
// Exit codes: 0 clean, 1 findings, 2 usage error.
#include <cstdio>
#include <string_view>
#include <vector>

#include "obs/metric_catalog.hpp"
#include "sdlint/findings.hpp"
#include "sdlint/fixtures.hpp"
#include "sdlint/runner.hpp"

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: sdlint [--json] [--selftest] [--metric-table]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  bool json = false;
  bool selftest = false;
  bool metric_table = false;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg == "--json") {
      json = true;
    } else if (arg == "--selftest") {
      selftest = true;
    } else if (arg == "--metric-table") {
      metric_table = true;
    } else {
      return usage();
    }
  }
  if (metric_table) {
    if (json || selftest) return usage();
    std::fputs(sdc::obs::render_metric_table().c_str(), stdout);
    return 0;
  }

  const std::vector<sdc::lint::Finding> findings =
      selftest ? sdc::lint::run_selftest()
               : sdc::lint::run_all_checks().findings;

  if (json) {
    std::fputs(sdc::lint::findings_to_json(findings).c_str(), stdout);
    std::fputc('\n', stdout);
  } else if (!findings.empty()) {
    std::fputs(sdc::lint::findings_to_text(findings).c_str(), stderr);
  }
  if (findings.empty()) {
    if (!json) {
      std::fprintf(stderr, "sdlint: %s clean\n",
                   selftest ? "selftest" : "all checks");
    }
    return 0;
  }
  std::fprintf(stderr, "sdlint: %zu finding(s)\n", findings.size());
  return 1;
}
