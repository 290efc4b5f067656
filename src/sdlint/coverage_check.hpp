// Check (c): graph coverage through the real miner.
//
// From the declared tables alone, sdlint composes a synthetic log corpus
// — per-machine edge-coverage walks (a BFS path from INIT to every
// transition, fresh canonical ids per walk) plus every milestone spec in
// emission order — and mines it with the *production* MinePlan.  All 14
// Table-I event kinds must be mined, and every declared `emits` must
// materialize on its stream.  This catches protocol breaks the per-line
// contract check cannot see: classification failures, stream binding,
// FIRST_LOG synthesis preconditions.
#pragma once

#include <span>
#include <string>
#include <vector>

#include "common/log_contract.hpp"
#include "sdlint/findings.hpp"
#include "yarn/state_machine.hpp"

namespace sdc::lint {

/// A synthetic log stream composed from the declared tables.
struct ComposedStream {
  std::string name;
  std::vector<std::string> lines;
};

/// Composes the corpus: one stream per daemon role, machine walks merged
/// into the daemon streams their logger classes classify to.
std::vector<ComposedStream> compose_corpus(
    std::span<const yarn::MachineDescriptor> machines,
    std::span<const std::span<const contract::MilestoneSpec>> milestone_groups,
    std::vector<Finding>& findings);

/// Mines the corpus with the production miner and reports missing
/// Table-I kinds and declared-but-unmined events.
std::vector<Finding> check_coverage(
    std::span<const yarn::MachineDescriptor> machines,
    std::span<const std::span<const contract::MilestoneSpec>> milestone_groups);

/// check_coverage over the real tables.
std::vector<Finding> check_real_coverage();

}  // namespace sdc::lint
