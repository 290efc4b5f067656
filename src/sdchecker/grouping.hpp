// Fourth stage: aggregate events by global ID into per-application
// timelines (paper §III-C: "SDchecker binds each log event with its
// corresponding global ID ... aggregates and groups state transformations
// based on the IDs").  For each entity and event kind the *first*
// occurrence wins (an executor logs "Got assigned task" for every task;
// only the first marks the end of the scheduling delay).
//
// A timeline holds that first timestamp per kind and nothing else: dense
// slots indexed by the enumerator value with a presence bitset
// (`KindFirstTs`).  Containers sit in a `std::map` by id, the order the
// decomposition and the exports iterate in; applications sit in an
// unordered table that finalize sorts into app-ID order.  Because
// `record` keeps the minimum timestamp, applying events is
// *commutative*: events applied in any order reproduce the serial
// timelines bit for bit.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <unordered_map>
#include <utility>
#include <vector>

#include "sdchecker/events.hpp"

namespace sdc::checker {

static_assert(kEventKindSlots <= 32,
              "per-kind presence bitsets are 32 bits wide");

/// First timestamp per event kind: dense slots plus a presence bitset.
/// Keeps the `std::map<EventKind, int64>` interface the timeline
/// consumers use (`operator[]`, ordered iteration yielding (kind, ts)
/// pairs, `erase`), but `has`/`ts` are a bit test and an array read.
class KindFirstTs {
 public:
  /// Keeps the earliest timestamp for `kind` (first occurrence wins;
  /// min, not first-applied, so event application commutes).
  void record(EventKind kind, std::int64_t ts) {
    const std::uint32_t bit = 1u << static_cast<std::uint32_t>(kind);
    const auto slot = static_cast<std::size_t>(kind);
    if ((present_ & bit) == 0 || ts < ts_[slot]) ts_[slot] = ts;
    present_ |= bit;
  }

  /// Map-style get-or-default-insert (also used to overwrite in tests).
  std::int64_t& operator[](EventKind kind) {
    const std::uint32_t bit = 1u << static_cast<std::uint32_t>(kind);
    const auto slot = static_cast<std::size_t>(kind);
    if ((present_ & bit) == 0) ts_[slot] = 0;
    present_ |= bit;
    return ts_[slot];
  }

  [[nodiscard]] bool contains(EventKind kind) const {
    return (present_ & (1u << static_cast<std::uint32_t>(kind))) != 0;
  }

  [[nodiscard]] std::optional<std::int64_t> get(EventKind kind) const {
    if (!contains(kind)) return std::nullopt;
    return ts_[static_cast<std::size_t>(kind)];
  }

  void erase(EventKind kind) {
    present_ &= ~(1u << static_cast<std::uint32_t>(kind));
  }

  [[nodiscard]] bool empty() const { return present_ == 0; }

  /// One presence bit per EventKind (bit index = enumerator value) —
  /// completeness checks OR these instead of walking containers.
  [[nodiscard]] std::uint32_t present_mask() const { return present_; }

  /// Forward iteration over present kinds in enumerator order —
  /// identical visit order to the `std::map` it replaces.
  class const_iterator {
   public:
    const_iterator(const KindFirstTs* table, std::size_t slot)
        : table_(table), slot_(slot) {
      skip_absent();
    }
    std::pair<EventKind, std::int64_t> operator*() const {
      return {static_cast<EventKind>(slot_), table_->ts_[slot_]};
    }
    const_iterator& operator++() {
      ++slot_;
      skip_absent();
      return *this;
    }
    friend bool operator==(const const_iterator& a, const const_iterator& b) {
      return a.slot_ == b.slot_;
    }

   private:
    void skip_absent() {
      while (slot_ < kEventKindSlots &&
             (table_->present_ & (1u << slot_)) == 0) {
        ++slot_;
      }
    }

    const KindFirstTs* table_;
    std::size_t slot_;
  };

  [[nodiscard]] const_iterator begin() const {
    return const_iterator(this, 0);
  }
  [[nodiscard]] const_iterator end() const {
    return const_iterator(this, kEventKindSlots);
  }

 private:
  std::uint32_t present_ = 0;
  std::int64_t ts_[kEventKindSlots] = {};
};

/// Event history of a single container.
struct ContainerTimeline {
  ContainerId id;

  /// First timestamp per event kind (ms).
  KindFirstTs first_ts;

  [[nodiscard]] std::optional<std::int64_t> ts(EventKind kind) const;
  [[nodiscard]] bool has(EventKind kind) const;
};

/// Event history of one application and all its containers.
struct AppTimeline {
  ApplicationId app;

  KindFirstTs first_ts;
  /// By container id, the order the decomposition and exports iterate in.
  std::map<ContainerId, ContainerTimeline> containers;

  [[nodiscard]] std::optional<std::int64_t> ts(EventKind kind) const;
  [[nodiscard]] bool has(EventKind kind) const;

  /// Union of every container's presence bits (see
  /// `KindFirstTs::present_mask`) — one pass over containers, reused by
  /// the completeness report.
  [[nodiscard]] std::uint32_t container_present_mask() const;

  /// The AppMaster container (sequence number 1), if seen.
  [[nodiscard]] const ContainerTimeline* am_container() const;

  /// All non-AM containers, ordered by container id.
  [[nodiscard]] std::vector<const ContainerTimeline*> worker_containers() const;

  /// Earliest timestamp of `kind` across worker containers.
  [[nodiscard]] std::optional<std::int64_t> min_worker_ts(EventKind kind) const;
  /// Latest timestamp of `kind` across worker containers.
  [[nodiscard]] std::optional<std::int64_t> max_worker_ts(EventKind kind) const;
};

/// Application hash for the grouping tables.  Finalize sorts every
/// table into app-ID order, so the layout it gives a table never reaches
/// an output.
struct ApplicationIdHash {
  std::size_t operator()(const ApplicationId& app) const noexcept {
    return std::hash<std::int64_t>{}(app.cluster_ts) * 31 +
           std::hash<std::int32_t>{}(app.id);
  }
};

/// Unordered application table used while grouping; the finalize stage
/// sorts it into the deterministic app-ID order.
using AppTable = std::unordered_map<ApplicationId, AppTimeline,
                                    ApplicationIdHash>;

/// Applies row `i` of `events` to its application's timeline.  Returns
/// false when the row carries no application id and cannot be
/// attributed.  Rows apply in any order to the same timelines (see the
/// file comment), so `CorpusPipeline` applies each stream's rows as the
/// stream finishes stitching, with no corpus-wide merge first.
bool apply_event(AppTable& apps, const EventBatch& events, std::size_t i);

}  // namespace sdc::checker
