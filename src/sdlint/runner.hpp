// Entry point tying the check families together for the CLI and the
// test suite.
#pragma once

#include <vector>

#include "sdlint/findings.hpp"

namespace sdc::lint {

struct Report {
  std::vector<Finding> findings;
  [[nodiscard]] bool clean() const { return findings.empty(); }
};

/// Runs every check over the real tables: machine well-formedness, the
/// emitter/extractor contract, Table-I coverage through the production
/// miner, the metric catalog, its Prometheus names and the diagnostic
/// kinds.
Report run_all_checks();

}  // namespace sdc::lint
