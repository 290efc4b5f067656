#include "sdlint/machine_check.hpp"

#include <algorithm>
#include <deque>
#include <string>

#include "sdchecker/events.hpp"

namespace sdc::lint {
namespace {

std::string state_label(const yarn::MachineDescriptor& machine,
                        std::size_t state) {
  if (state < machine.state_names.size()) {
    return std::string(machine.name) + " state " +
           std::string(machine.state_names[state]);
  }
  return std::string(machine.name) + " state #" + std::to_string(state);
}

std::string edge_label(const yarn::MachineDescriptor& machine,
                       const yarn::MachineDescriptor::Edge& edge) {
  const auto name = [&](std::size_t state) {
    return state < machine.state_names.size()
               ? std::string(machine.state_names[state])
               : std::string("#").append(std::to_string(state));
  };
  return std::string(machine.name) + " " + name(edge.from) + " -> " +
         name(edge.to);
}

bool is_terminal(const yarn::MachineDescriptor& machine, std::size_t state) {
  return std::find(machine.terminals.begin(), machine.terminals.end(),
                   state) != machine.terminals.end();
}

}  // namespace

std::vector<Finding> check_machine(const yarn::MachineDescriptor& machine) {
  std::vector<Finding> findings;
  const std::size_t n = machine.state_names.size();

  // Structural sanity: indices must address the state-name table.  Bad
  // edges are reported and skipped by the graph passes below.
  std::vector<yarn::MachineDescriptor::Edge> edges;
  for (const auto& edge : machine.edges) {
    if (edge.from >= n || edge.to >= n) {
      findings.push_back(make_finding(
          "machine.bad-state-index", edge_label(machine, edge),
          "transition references a state index outside the state table (" +
              std::to_string(n) + " states)"));
      continue;
    }
    edges.push_back(edge);
  }
  if (machine.initial >= n) {
    findings.push_back(make_finding(
        "machine.bad-state-index", std::string(machine.name),
        "initial state index " + std::to_string(machine.initial) +
            " is outside the state table"));
    return findings;
  }
  for (const std::size_t terminal : machine.terminals) {
    if (terminal >= n) {
      findings.push_back(make_finding(
          "machine.bad-state-index", std::string(machine.name),
          "terminal state index " + std::to_string(terminal) +
              " is outside the state table"));
    }
  }

  // Reachability from the initial state.
  std::vector<bool> reachable(n, false);
  std::deque<std::size_t> frontier{machine.initial};
  reachable[machine.initial] = true;
  while (!frontier.empty()) {
    const std::size_t state = frontier.front();
    frontier.pop_front();
    for (const auto& edge : edges) {
      if (edge.from == state && !reachable[edge.to]) {
        reachable[edge.to] = true;
        frontier.push_back(edge.to);
      }
    }
  }
  for (std::size_t state = 0; state < n; ++state) {
    if (!reachable[state]) {
      findings.push_back(make_finding(
          "machine.unreachable", state_label(machine, state),
          "not reachable from initial state " +
              std::string(machine.state_names[machine.initial])));
    }
  }

  // A transition out of an unreachable state can never fire.
  for (const auto& edge : edges) {
    if (!reachable[edge.from]) {
      findings.push_back(
          make_finding("machine.dead-transition", edge_label(machine, edge),
                       "source state is unreachable, so this transition "
                       "can never fire"));
    }
  }

  // Duplicates and nondeterminism.
  for (std::size_t i = 0; i < edges.size(); ++i) {
    for (std::size_t j = i + 1; j < edges.size(); ++j) {
      if (edges[i].from != edges[j].from) continue;
      if (edges[i].to == edges[j].to) {
        findings.push_back(make_finding(
            "machine.duplicate-transition", edge_label(machine, edges[i]),
            "transition is declared more than once"));
      } else if (!edges[i].event.empty() &&
                 edges[i].event == edges[j].event) {
        findings.push_back(make_finding(
            "machine.nondeterministic", edge_label(machine, edges[i]),
            "event " + std::string(edges[i].event) +
                " also leads to " +
                std::string(machine.state_names[edges[j].to]) +
                " from the same state"));
      }
    }
  }

  // Terminals are terminal; everything else has a way forward.
  for (std::size_t state = 0; state < n; ++state) {
    const bool has_outgoing =
        std::any_of(edges.begin(), edges.end(),
                    [state](const auto& e) { return e.from == state; });
    if (is_terminal(machine, state) && has_outgoing) {
      findings.push_back(
          make_finding("machine.terminal-outgoing", state_label(machine, state),
                       "declared terminal but has outgoing transitions"));
    }
    if (!is_terminal(machine, state) && !has_outgoing && reachable[state]) {
      findings.push_back(
          make_finding("machine.dead-end", state_label(machine, state),
                       "non-terminal state with no outgoing transitions"));
    }
  }

  // Every emits annotation must name a real miner event.
  for (const auto& edge : edges) {
    if (!edge.emits.empty() && !checker::event_from_name(edge.emits)) {
      findings.push_back(make_finding(
          "machine.unknown-event", edge_label(machine, edge),
          "emits \"" + std::string(edge.emits) +
              "\", which is not a known miner event name"));
    }
  }
  return findings;
}

std::vector<Finding> check_all_machines() {
  std::vector<Finding> findings;
  for (const yarn::MachineDescriptor& machine : yarn::machine_descriptors()) {
    append_findings(findings, check_machine(machine));
  }
  return findings;
}

}  // namespace sdc::lint
