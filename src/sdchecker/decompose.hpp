// Fifth stage: delay decomposition (paper §III-C).
//
// All values are millisecond intervals between Table-I events; a field is
// nullopt when the required events are missing from the logs.  Negative
// values are preserved (they indicate clock skew between daemons and are
// flagged by the anomaly detector rather than silently clamped).
//
//   total     SUBMITTED(1)            -> first FIRST_TASK(14)
//   am        SUBMITTED(1)            -> APT_REGISTERED(3)
//   cf / cl   SUBMITTED(1)            -> first / last worker RUNNING(8)
//   driver    DRV_FIRST_LOG(9)        -> DRV_REGISTER(10)
//   executor  first EXE_FIRST_LOG(13) -> first FIRST_TASK(14)
//   in_app    driver + executor                (Spark-caused)
//   out_app   total - in_app                   (YARN-caused)
//   alloc     START_ALLO(11)          -> END_ALLO(12)
//   per container:
//     acquisition   ALLOCATED(4)  -> ACQUIRED(5)
//     localization  LOCALIZING(6) -> SCHEDULED(7)
//     queuing       SCHEDULED(7)  -> RUNNING(8)
//     launching     RUNNING(8)    -> instance FIRST_LOG(9/13)
//
// These anchors live in `app_spans` and `container_spans` alone: the
// decomposition keeps each span's length, and the trace export draws the
// spans themselves.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <vector>

#include "sdchecker/grouping.hpp"

namespace sdc::checker {

/// Per-container component delays (ms).
struct ContainerDelays {
  ContainerId id;
  bool is_am = false;
  std::optional<std::int64_t> acquisition;
  std::optional<std::int64_t> localization;
  std::optional<std::int64_t> queuing;
  std::optional<std::int64_t> launching;
  /// Executor idle time (paper Fig. 10): this executor's FIRST_LOG to its
  /// own first task — the span it sits waiting for the driver's user
  /// initialization and task scheduling.
  std::optional<std::int64_t> executor_idle;
};

/// Full decomposition for one application (ms).
struct Delays {
  ApplicationId app;

  std::optional<std::int64_t> total;
  std::optional<std::int64_t> am;
  std::optional<std::int64_t> cf;
  std::optional<std::int64_t> cl;
  std::optional<std::int64_t> cl_minus_cf;
  std::optional<std::int64_t> driver;
  std::optional<std::int64_t> executor;
  std::optional<std::int64_t> in_app;
  std::optional<std::int64_t> out_app;
  std::optional<std::int64_t> alloc;

  std::vector<ContainerDelays> containers;

  /// Convenience accessors over `containers` (workers only, value present).
  [[nodiscard]] std::vector<std::int64_t> worker_acquisitions() const;
  [[nodiscard]] std::vector<std::int64_t> worker_localizations() const;
  [[nodiscard]] std::vector<std::int64_t> worker_queuings() const;
  [[nodiscard]] std::vector<std::int64_t> worker_launchings() const;
  [[nodiscard]] std::vector<std::int64_t> worker_idles() const;
};

/// Where one delay component lies: its start (epoch-ms) and its length
/// (ms).  Either is nullopt when an anchor event is missing; a negative
/// length (clock skew) is kept.
struct DelaySpan {
  std::optional<std::int64_t> start;
  std::optional<std::int64_t> length;
};

/// The delay-component catalog (`delay_component_specs()`, report.hpp)
/// lists the app-level components first, then the per-container ones;
/// the span arrays are indexed by catalog row alike.
inline constexpr std::size_t kAppComponents = 10;
inline constexpr std::size_t kContainerComponents = 5;
using AppSpans = std::array<DelaySpan, kAppComponents>;
using ContainerSpans = std::array<DelaySpan, kContainerComponents>;

/// The app-level components' spans, in catalog order.
[[nodiscard]] AppSpans app_spans(const AppTimeline& timeline);

/// The per-container components' spans of container `id`, in catalog
/// order (an AM container has no exec-idle).
[[nodiscard]] ContainerSpans container_spans(
    const AppTimeline& timeline, const ContainerId& id,
    const ContainerTimeline& container);

/// Computes the decomposition from one application's timeline: each
/// catalog row's member holds its span's length.
[[nodiscard]] Delays decompose(const AppTimeline& timeline);

}  // namespace sdc::checker
