// Thread-safe metrics registry: counters, gauges and fixed-bucket
// histograms for the simulator, the mining pipeline and the analyzer.
//
// Design goals (ISSUE 4):
//   - lock-free fast path: instruments are found once (mutex-protected
//     name lookup, pointer-stable storage) and then updated with relaxed
//     atomics only — a cached `Counter&` costs one atomic add per bump;
//   - snapshot-on-read: readers copy a consistent-enough view without
//     stopping writers (per-value atomic loads; cross-metric skew is
//     acceptable for monitoring output);
//   - zero configuration: `MetricsRegistry::global()` is always there,
//     instrumentation points cache their instruments in function-local
//     statics.
//
// Naming convention (see docs/OBSERVABILITY.md for the catalogue):
// dotted lowercase paths, layer first — "sim.engine.events_executed",
// "mine.lines", "analyze.apps".
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/mutex.hpp"
#include "common/thread_annotations.hpp"

namespace sdc::obs {

/// Monotonically increasing count.  Relaxed atomics: totals are exact,
/// cross-counter ordering is not promised.
class Counter {
 public:
  void add(std::uint64_t n = 1) noexcept {
    value_.fetch_add(n, std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t value() const noexcept {
    return value_.load(std::memory_order_relaxed);
  }
  void reset() noexcept { value_.store(0, std::memory_order_relaxed); }

  /// The instrument's storage, for cross-layer sinks: lower layers that
  /// cannot depend on obs (the thread pool) are handed this atomic and
  /// update it directly (see MetricsRegistry::global).
  [[nodiscard]] std::atomic<std::uint64_t>& raw() noexcept { return value_; }

 private:
  std::atomic<std::uint64_t> value_{0};
};

/// Last-written signed value (queue depths, expected totals).
class Gauge {
 public:
  void set(std::int64_t v) noexcept {
    value_.store(v, std::memory_order_relaxed);
  }
  void add(std::int64_t n) noexcept {
    value_.fetch_add(n, std::memory_order_relaxed);
  }
  [[nodiscard]] std::int64_t value() const noexcept {
    return value_.load(std::memory_order_relaxed);
  }
  void reset() noexcept { value_.store(0, std::memory_order_relaxed); }

  /// The instrument's storage, for cross-layer sinks (see Counter::raw).
  [[nodiscard]] std::atomic<std::int64_t>& raw() noexcept { return value_; }

 private:
  std::atomic<std::int64_t> value_{0};
};

/// Fixed-bucket histogram.  Bucket bounds are upper edges (inclusive);
/// one implicit overflow bucket catches everything beyond the last edge.
/// Bounds are fixed at construction so `observe` is a binary search plus
/// one relaxed atomic increment — no locks, no allocation.
class Histogram {
 public:
  explicit Histogram(std::vector<double> upper_edges);

  void observe(double value) noexcept;

  [[nodiscard]] const std::vector<double>& upper_edges() const noexcept {
    return edges_;
  }
  [[nodiscard]] std::uint64_t count() const noexcept {
    return count_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] double sum() const noexcept {
    return sum_.load(std::memory_order_relaxed);
  }
  /// Per-bucket counts; index edges_.size() is the overflow bucket.
  [[nodiscard]] std::vector<std::uint64_t> bucket_counts() const;

  void reset() noexcept;

  /// Default edges for millisecond latencies: 1,2,5 decades from 1 ms to
  /// 100 s.
  static std::vector<double> default_latency_edges_ms();

 private:
  std::vector<double> edges_;
  std::vector<std::atomic<std::uint64_t>> buckets_;
  std::atomic<std::uint64_t> count_{0};
  std::atomic<double> sum_{0.0};
};

/// Point-in-time copy of every registered instrument.
struct MetricsSnapshot {
  struct HistogramValue {
    std::uint64_t count = 0;
    double sum = 0.0;
    std::vector<double> upper_edges;
    std::vector<std::uint64_t> bucket_counts;  // last entry = overflow
  };
  std::map<std::string, std::uint64_t> counters;
  std::map<std::string, std::int64_t> gauges;
  std::map<std::string, HistogramValue> histograms;

  [[nodiscard]] bool has_counter(std::string_view name) const;
  [[nodiscard]] std::uint64_t counter(std::string_view name) const;
  [[nodiscard]] bool has_histogram(std::string_view name) const;

  /// Stable JSON rendering: {"counters":{...},"gauges":{...},
  /// "histograms":{name:{count,sum,buckets:[{le,count}...]}}}.
  [[nodiscard]] std::string to_json() const;
};

/// Name -> instrument registry.  Lookup (get-or-create) takes a mutex;
/// the returned references are pointer-stable for the registry's
/// lifetime, so hot paths look up once and update lock-free afterwards.
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// The process-wide registry every instrumentation point uses.  From
  /// its creation on, every thread pool counts into its `pool.*` rows.
  static MetricsRegistry& global();

  Counter& counter(std::string_view name) SDC_EXCLUDES(mutex_);
  Gauge& gauge(std::string_view name) SDC_EXCLUDES(mutex_);
  /// First registration fixes the edges; later calls with the same name
  /// return the existing histogram regardless of `upper_edges`.
  Histogram& histogram(std::string_view name,
                       std::vector<double> upper_edges =
                           Histogram::default_latency_edges_ms())
      SDC_EXCLUDES(mutex_);

  [[nodiscard]] MetricsSnapshot snapshot() const SDC_EXCLUDES(mutex_);

  /// Resets every value to zero (instruments stay registered, references
  /// stay valid).  Tests and benches use this to isolate runs.
  void reset_values() SDC_EXCLUDES(mutex_);

 private:
  // The mutex guards the name -> instrument maps only; the instruments
  // themselves are atomics updated lock-free through the pointer-stable
  // references the accessors return.
  mutable Mutex mutex_;
  std::map<std::string, std::unique_ptr<Counter>, std::less<>> counters_
      SDC_GUARDED_BY(mutex_);
  std::map<std::string, std::unique_ptr<Gauge>, std::less<>> gauges_
      SDC_GUARDED_BY(mutex_);
  std::map<std::string, std::unique_ptr<Histogram>, std::less<>> histograms_
      SDC_GUARDED_BY(mutex_);
};

}  // namespace sdc::obs
