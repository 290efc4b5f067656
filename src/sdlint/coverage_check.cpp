#include "sdlint/coverage_check.hpp"

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <deque>
#include <map>
#include <optional>
#include <set>

#include "sdchecker/events.hpp"
#include "sdchecker/miner.hpp"
#include "sdlint/contract_check.hpp"
#include "spark/log_contract.hpp"
#include "workloads/log_contract.hpp"
#include "yarn/log_contract.hpp"

namespace sdc::lint {
namespace {

/// Composer state: a monotone timestamp and per-kind id counters so
/// every machine walk gets a fresh application/container.
struct Composer {
  std::int64_t seq = 0;
  int next_id = 0;

  std::string stamp_line(std::string_view logger, std::string_view message) {
    // log4j layout the parser expects; one ms per line keeps timestamps
    // strictly monotone (no skew diagnostics).
    const std::int64_t ms = seq++;
    char head[48];
    std::snprintf(head, sizeof(head), "2017-07-03 16:%02lld:%02lld,%03lld",
                  static_cast<long long>(40 + ms / 60000),
                  static_cast<long long>((ms / 1000) % 60),
                  static_cast<long long>(ms % 1000));
    return std::string(head) + " INFO  " + std::string(logger) + ": " +
           std::string(message);
  }

  std::string fresh_id(std::string_view id_kind) {
    char buf[64];
    const int n = ++next_id;
    if (id_kind == "application") {
      std::snprintf(buf, sizeof(buf), "application_1499100000000_%04d", n);
    } else {
      std::snprintf(buf, sizeof(buf),
                    "container_1499100000000_%04d_01_000001", n);
    }
    return buf;
  }
};

/// Stream name for a daemon role.
std::string role_stream(contract::StreamRole role) {
  switch (role) {
    case contract::StreamRole::kResourceManager:
      return "rm.log";
    case contract::StreamRole::kNodeManager:
      return "nm.log";
    case contract::StreamRole::kSparkDriver:
      return "driver.log";
    case contract::StreamRole::kSparkExecutor:
      return "executor.log";
    case contract::StreamRole::kMrAppMaster:
      return "mram.log";
    case contract::StreamRole::kMrTask:
      return "mrtask.log";
  }
  return "unknown.log";
}

/// Which daemon stream a machine's transitions appear in, from the
/// classifier's view of its logger class.
std::string machine_stream(const yarn::MachineDescriptor& machine) {
  const std::string_view klass =
      checker::short_class_name(machine.logger_class);
  for (const checker::ClassKind& entry : checker::class_kinds()) {
    if (entry.klass != klass) continue;
    switch (entry.kind) {
      case checker::StreamKind::kResourceManager:
        return "rm.log";
      case checker::StreamKind::kNodeManager:
        return "nm.log";
      case checker::StreamKind::kDriver:
        return "driver.log";
      case checker::StreamKind::kExecutor:
        return "executor.log";
      case checker::StreamKind::kUnknown:
        break;
    }
  }
  return {};
}

/// BFS path of edge indices from `start` to `target` ("" when
/// unreachable — the machine check owns that diagnosis).
std::vector<std::size_t> path_to(const yarn::MachineDescriptor& machine,
                                 std::size_t start, std::size_t target) {
  if (start == target) return {};
  const std::size_t n = machine.state_names.size();
  std::vector<std::size_t> via_edge(n, SIZE_MAX);
  std::vector<bool> seen(n, false);
  std::deque<std::size_t> frontier{start};
  seen[start] = true;
  while (!frontier.empty()) {
    const std::size_t state = frontier.front();
    frontier.pop_front();
    for (std::size_t i = 0; i < machine.edges.size(); ++i) {
      const auto& edge = machine.edges[i];
      if (edge.from != state || edge.from >= n || edge.to >= n) continue;
      if (seen[edge.to]) continue;
      seen[edge.to] = true;
      via_edge[edge.to] = i;
      if (edge.to == target) {
        std::vector<std::size_t> path;
        for (std::size_t at = target; at != start;
             at = machine.edges[via_edge[at]].from) {
          path.push_back(via_edge[at]);
        }
        std::reverse(path.begin(), path.end());
        return path;
      }
      frontier.push_back(edge.to);
    }
  }
  return {};
}

std::string render_edge(const yarn::MachineDescriptor& machine,
                        const yarn::MachineDescriptor::Edge& edge,
                        std::string_view id) {
  return contract::render_template(
      machine.line_format,
      {{"id", id},
       {"from", machine.state_names[edge.from]},
       {"to", machine.state_names[edge.to]},
       {"event", edge.event}});
}

}  // namespace

std::vector<ComposedStream> compose_corpus(
    std::span<const yarn::MachineDescriptor> machines,
    std::span<const std::span<const contract::MilestoneSpec>> milestone_groups,
    std::vector<Finding>& findings) {
  Composer composer;
  std::map<std::string, std::vector<std::string>> streams;

  // Edge-coverage walks: every transition fires at least once, each walk
  // on a fresh id so walks cannot interfere.
  for (const yarn::MachineDescriptor& machine : machines) {
    const std::string stream = machine_stream(machine);
    if (stream.empty()) {
      findings.push_back(make_finding(
          "coverage.unclassified-machine", std::string(machine.name),
          "logger class " + std::string(machine.logger_class) +
              " does not classify to any daemon stream"));
      continue;
    }
    for (std::size_t i = 0; i < machine.edges.size(); ++i) {
      const auto& target = machine.edges[i];
      if (target.from >= machine.state_names.size() ||
          target.to >= machine.state_names.size()) {
        continue;  // reported by the machine check
      }
      const std::string id = composer.fresh_id(machine.id_kind);
      for (const std::size_t step :
           path_to(machine, machine.initial, target.from)) {
        streams[stream].push_back(composer.stamp_line(
            machine.logger_class,
            render_edge(machine, machine.edges[step], id)));
      }
      streams[stream].push_back(composer.stamp_line(
          machine.logger_class, render_edge(machine, target, id)));
    }
  }

  // Milestones in declaration (= emission) order, per role stream.
  for (const auto& group : milestone_groups) {
    for (const contract::MilestoneSpec& spec : group) {
      streams[role_stream(spec.stream)].push_back(composer.stamp_line(
          spec.logger_class,
          render_canonical(spec.format, spec.name, "", findings)));
    }
  }

  std::vector<ComposedStream> out;
  out.reserve(streams.size());
  for (auto& [name, lines] : streams) {
    out.push_back(ComposedStream{name, std::move(lines)});
  }
  return out;
}

std::vector<Finding> check_coverage(
    std::span<const yarn::MachineDescriptor> machines,
    std::span<const std::span<const contract::MilestoneSpec>>
        milestone_groups) {
  std::vector<Finding> findings;
  const std::vector<ComposedStream> corpus =
      compose_corpus(machines, milestone_groups, findings);

  // Mine the corpus as `analyze` does: plan it, run every chunk, stitch
  // every stream.
  logging::LogBundle bundle;
  for (const ComposedStream& stream : corpus) {
    for (const std::string& line : stream.lines) {
      bundle.append(stream.name, line);
    }
  }
  checker::MinePlan plan(bundle, {.threads = 1});
  for (std::size_t c = 0; c < plan.chunk_count(); ++c) plan.run_chunk(c);
  std::set<checker::EventKind> mined;
  std::vector<logging::Diagnostic> unreadable;
  for (std::size_t s = 0; s < plan.stream_count(); ++s) {
    const std::optional<checker::MinedStream> stream =
        plan.stitch(s, unreadable);
    if (!stream) continue;
    for (const auto event : stream->events) mined.insert(event.kind);
  }

  // All 14 Table-I kinds must be reachable from the declared tables.
  for (const checker::EventKind kind : checker::all_event_kinds()) {
    if (checker::table1_number(kind) == 0) continue;
    if (!mined.contains(kind)) {
      findings.push_back(make_finding(
          "coverage.missing-kind",
          std::string(checker::event_name(kind)),
          "Table I message " + std::to_string(checker::table1_number(kind)) +
              " is not produced by any declared emitter line"));
    }
  }

  // Every declared emits must materialize (classification and stream
  // binding included — this is the end-to-end protocol check).
  const auto declared_emits = [&](std::string_view emits,
                                  std::string_view subject) {
    const auto kind = checker::event_from_name(emits);
    if (!kind) return;  // the contract check reports unknown names
    if (!mined.contains(*kind)) {
      findings.push_back(make_finding(
          "coverage.emit-unmined", std::string(subject),
          "declares " + std::string(emits) +
              ", but mining the composed corpus never produced it"));
    }
  };
  for (const yarn::MachineDescriptor& machine : machines) {
    for (const auto& edge : machine.edges) {
      if (!edge.emits.empty()) {
        declared_emits(edge.emits, std::string(machine.name) + " edge " +
                                       std::string(edge.event));
      }
    }
  }
  for (const auto& group : milestone_groups) {
    for (const contract::MilestoneSpec& spec : group) {
      if (!spec.emits.empty()) declared_emits(spec.emits, spec.name);
    }
  }
  return findings;
}

std::vector<Finding> check_real_coverage() {
  const std::span<const contract::MilestoneSpec> groups[] = {
      yarn::yarn_milestones(),
      spark::spark_milestones(),
      workloads::mr_milestones(),
  };
  return check_coverage(yarn::machine_descriptors(), groups);
}

}  // namespace sdc::lint
