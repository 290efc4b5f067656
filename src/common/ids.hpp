// YARN-style global identifiers.
//
// SDchecker correlates events across daemon logs purely through the
// textual IDs that YARN embeds in log messages (paper §III-C): an
// application ID such as `application_1499100000000_0007` and container
// IDs such as `container_1499100000000_0007_01_000002`.  These types
// render and parse exactly that format so that the simulator's logs are
// indistinguishable from real YARN logs to the mining code.
#pragma once

#include <compare>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

namespace sdc {

/// Identifies one submitted application within a cluster incarnation.
struct ApplicationId {
  /// Cluster start timestamp (epoch millis), the YARN "cluster timestamp".
  std::int64_t cluster_ts = 0;
  /// Monotonic per-cluster sequence number, starting at 1.
  std::int32_t id = 0;

  auto operator<=>(const ApplicationId&) const = default;

  /// Appends `application_<clusterTs>_<zero-padded id>` to `out`.
  void append_to(std::string& out) const;
  /// The `append_to` form as a string of its own.
  [[nodiscard]] std::string str() const;

  /// Parses the `application_..._...` form; returns nullopt on mismatch.
  static std::optional<ApplicationId> parse(std::string_view text);
};

/// Identifies one container granted to an application attempt.
struct ContainerId {
  ApplicationId app;
  /// Application attempt number (always 1 in this work: no AM restarts).
  std::int32_t attempt = 1;
  /// Per-attempt container sequence; container 1 is by convention the AM.
  std::int64_t id = 0;

  auto operator<=>(const ContainerId&) const = default;

  /// True for the AppMaster container (sequence number 1).
  [[nodiscard]] bool is_am() const noexcept { return id == 1; }

  /// Appends `container_<clusterTs>_<appId>_<attempt>_<containerId>` to
  /// `out`.
  void append_to(std::string& out) const;
  /// The `append_to` form as a string of its own.
  [[nodiscard]] std::string str() const;

  /// Parses the `container_...` form; returns nullopt on mismatch.
  static std::optional<ContainerId> parse(std::string_view text);
};

/// Identifies a worker node; rendered as `node<NN>.cluster:45454`.
struct NodeId {
  std::int32_t index = 0;

  auto operator<=>(const NodeId&) const = default;

  [[nodiscard]] std::string str() const;
  [[nodiscard]] std::string hostname() const;
  static std::optional<NodeId> parse(std::string_view text);
};

}  // namespace sdc
