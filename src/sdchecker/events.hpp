// The event vocabulary of the analysis: Table I's 14 identified log
// messages plus a few auxiliary events (container completion/release,
// application finish) that the scheduling graph and the anomaly detector
// use.
#pragma once

#include <cstddef>
#include <cstdint>
#include <iterator>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "common/ids.hpp"
#include "common/interner.hpp"

namespace sdc::checker {

enum class EventKind {
  // Table I, rows 1-14.
  kAppSubmitted = 1,        // RMAppImpl -> SUBMITTED
  kAppAccepted = 2,         // RMAppImpl -> ACCEPTED
  kAttemptRegistered = 3,   // RMAppImpl -> RUNNING on ATTEMPT_REGISTERED
  kContainerAllocated = 4,  // RMContainerImpl -> ALLOCATED
  kContainerAcquired = 5,   // RMContainerImpl -> ACQUIRED
  kNmLocalizing = 6,        // ContainerImpl -> LOCALIZING
  kNmScheduled = 7,         // ContainerImpl -> SCHEDULED
  kNmRunning = 8,           // ContainerImpl -> RUNNING
  kDriverFirstLog = 9,      // first line of a driver log
  kDriverRegister = 10,     // driver registers with the RM
  kStartAllo = 11,          // manually added: allocation batch starts
  kEndAllo = 12,            // manually added: all requested granted
  kExecutorFirstLog = 13,   // first line of an executor log
  kExecutorFirstTask = 14,  // "Got assigned task"
  // Auxiliary (beyond Table I).
  kRmContainerRunning = 20,
  kRmContainerCompleted = 21,
  kRmContainerReleased = 22,
  kNmExited = 23,
  kAppFinished = 24,
  kNmFailed = 25,
};

/// One slot per possible enumerator value — the timeline types store
/// per-kind state in dense arrays indexed by `int(kind)` with a 32-bit
/// presence bitset, so every enumerator must stay below 32.  Grow this
/// (and the bitset type in grouping.hpp) together with the enum.
inline constexpr std::size_t kEventKindSlots = 26;

/// Short stable name for reports and DOT labels ("SUBMITTED",
/// "FIRST_TASK", ...), following the paper's Table I naming.
std::string_view event_name(EventKind kind);

/// Table I message number (1-14), or 0 for auxiliary events.
std::int32_t table1_number(EventKind kind);

/// Every EventKind, in enumerator order — the vocabulary sdlint checks
/// coverage against.
std::span<const EventKind> all_event_kinds();

/// Inverse of event_name() (exact match), for resolving the `emits`
/// annotations on transition tables and milestone specs.
std::optional<EventKind> event_from_name(std::string_view name);

/// True for events scoped to a container rather than the application.
bool is_container_event(EventKind kind);

/// Columnar (structure-of-arrays) storage of extracted scheduling
/// events — the one event representation of the pipeline.  One parallel
/// array per field; the stream name is an id into a shared
/// `StringInterner` pool instead of a per-event `std::string`, so
/// pushing an event allocates nothing and the sort and k-way-merge keys
/// (ts, stream, line, kind) are read from contiguous arrays.
/// `operator[]` materializes a row `View` (`events[i].kind`, range-for).
class EventBatch {
 public:
  EventBatch() = default;
  explicit EventBatch(std::shared_ptr<const StringInterner> pool)
      : pool_(std::move(pool)) {}

  /// One event.  `stream` resolves through the pool and stays valid for
  /// the pool's lifetime.
  struct View {
    EventKind kind = EventKind::kAppSubmitted;
    std::int64_t ts_ms = 0;
    /// Owning application (unset straight out of the extractor for
    /// stream-scoped events until the stream binds).
    std::optional<ApplicationId> app;
    /// Owning container, for container-scoped events.
    std::optional<ContainerId> container;
    /// Which log stream produced the event (file name).
    std::string_view stream;
    /// 1-based line number within the stream.
    std::size_t line_no = 0;
  };

  void push(EventKind kind, std::int64_t ts_ms, std::uint32_t stream_id,
            std::size_t line_no, const std::optional<ApplicationId>& app,
            const std::optional<ContainerId>& container);

  /// Copies row `i` of `src` (which must share this batch's pool).
  void append_row(const EventBatch& src, std::size_t i);

  [[nodiscard]] std::size_t size() const { return kinds_.size(); }
  [[nodiscard]] bool empty() const { return kinds_.empty(); }
  void reserve(std::size_t n);
  void clear();

  [[nodiscard]] View operator[](std::size_t i) const;

  // Columnar accessors — the grouping stage and the merge comparator
  // read these directly instead of materializing Views.
  [[nodiscard]] EventKind kind_at(std::size_t i) const {
    return static_cast<EventKind>(kinds_[i]);
  }
  [[nodiscard]] std::int64_t ts_at(std::size_t i) const { return ts_[i]; }
  [[nodiscard]] std::uint32_t stream_id_at(std::size_t i) const {
    return streams_[i];
  }
  [[nodiscard]] std::string_view stream_name(std::size_t i) const {
    return pool_->name(streams_[i]);
  }
  [[nodiscard]] std::size_t line_at(std::size_t i) const { return lines_[i]; }
  [[nodiscard]] bool has_app(std::size_t i) const {
    return (flags_[i] & kHasApp) != 0;
  }
  [[nodiscard]] const ApplicationId& app_at(std::size_t i) const {
    return apps_[i];
  }
  [[nodiscard]] bool has_container(std::size_t i) const {
    return (flags_[i] & kHasContainer) != 0;
  }
  [[nodiscard]] const ContainerId& container_at(std::size_t i) const {
    return containers_[i];
  }

  /// Late binding of stream-scoped events (the miner's stitch pass).
  void set_app(std::size_t i, const ApplicationId& app) {
    apps_[i] = app;
    flags_[i] |= kHasApp;
  }
  void set_container(std::size_t i, const ContainerId& container) {
    containers_[i] = container;
    flags_[i] |= kHasContainer;
  }

  /// Strict weak order on rows: (ts, stream, line, kind) — the
  /// deterministic total order of `MineResult::events`; the final kind
  /// tiebreak places a synthesized FIRST_LOG ahead of a real event
  /// extracted from the same line.  Stream order is by *name*; equal ids
  /// short-circuit the string compare.
  [[nodiscard]] static bool row_less(const EventBatch& a, std::size_t i,
                                     const EventBatch& b, std::size_t j);

  /// Sorts rows into `row_less` order via an index sort plus one gather
  /// pass per column (cache-linear; rows never move pairwise).
  void sort();

  [[nodiscard]] const std::shared_ptr<const StringInterner>& pool() const {
    return pool_;
  }

  /// Input iterator yielding Views by value — enough for range-for and
  /// the <algorithm> consumers the tests use.
  class const_iterator {
   public:
    using iterator_category = std::input_iterator_tag;
    using value_type = View;
    using reference = View;
    using pointer = void;
    using difference_type = std::ptrdiff_t;

    const_iterator(const EventBatch* batch, std::size_t i)
        : batch_(batch), i_(i) {}
    View operator*() const { return (*batch_)[i_]; }
    const_iterator& operator++() {
      ++i_;
      return *this;
    }
    const_iterator operator++(int) {
      const_iterator old = *this;
      ++i_;
      return old;
    }
    friend bool operator==(const const_iterator& a, const const_iterator& b) {
      return a.i_ == b.i_;
    }

   private:
    const EventBatch* batch_;
    std::size_t i_;
  };

  [[nodiscard]] const_iterator begin() const { return {this, 0}; }
  [[nodiscard]] const_iterator end() const { return {this, size()}; }

 private:
  static constexpr std::uint8_t kHasApp = 1;
  static constexpr std::uint8_t kHasContainer = 2;

  std::shared_ptr<const StringInterner> pool_;
  std::vector<std::uint8_t> kinds_;
  std::vector<std::int64_t> ts_;
  std::vector<std::uint32_t> streams_;
  std::vector<std::size_t> lines_;
  std::vector<std::uint8_t> flags_;
  /// Absent ids keep a default-constructed placeholder so every column
  /// stays index-aligned.
  std::vector<ApplicationId> apps_;
  std::vector<ContainerId> containers_;
};

/// K-way merges already-sorted batches (all sharing one pool) into one
/// batch in `row_less` order.
[[nodiscard]] EventBatch merge_event_batches(std::vector<EventBatch> runs);

}  // namespace sdc::checker
