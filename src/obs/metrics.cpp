#include "obs/metrics.hpp"

#include <algorithm>

#include "common/json.hpp"
#include "common/thread_pool.hpp"
#include "obs/metric_catalog.hpp"

namespace sdc::obs {

Histogram::Histogram(std::vector<double> upper_edges)
    : edges_(std::move(upper_edges)), buckets_(edges_.size() + 1) {
  std::sort(edges_.begin(), edges_.end());
  edges_.erase(std::unique(edges_.begin(), edges_.end()), edges_.end());
  if (buckets_.size() != edges_.size() + 1) {
    // Duplicate edges were collapsed; atomics are not movable, rebuild.
    std::vector<std::atomic<std::uint64_t>> rebuilt(edges_.size() + 1);
    buckets_.swap(rebuilt);
  }
}

void Histogram::observe(double value) noexcept {
  const auto it = std::lower_bound(edges_.begin(), edges_.end(), value);
  const auto index = static_cast<std::size_t>(it - edges_.begin());
  buckets_[index].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  // fetch_add(double) is C++20 but not universally lowered; CAS loop is
  // portable and uncontended in practice (observations dominate reads).
  double expected = sum_.load(std::memory_order_relaxed);
  while (!sum_.compare_exchange_weak(expected, expected + value,
                                     std::memory_order_relaxed)) {
  }
}

std::vector<std::uint64_t> Histogram::bucket_counts() const {
  std::vector<std::uint64_t> out;
  out.reserve(buckets_.size());
  for (const auto& bucket : buckets_) {
    out.push_back(bucket.load(std::memory_order_relaxed));
  }
  return out;
}

void Histogram::reset() noexcept {
  for (auto& bucket : buckets_) bucket.store(0, std::memory_order_relaxed);
  count_.store(0, std::memory_order_relaxed);
  sum_.store(0.0, std::memory_order_relaxed);
}

std::vector<double> Histogram::default_latency_edges_ms() {
  std::vector<double> edges;
  for (double decade = 1.0; decade <= 100'000.0; decade *= 10.0) {
    edges.push_back(decade);
    edges.push_back(decade * 2);
    edges.push_back(decade * 5);
  }
  return edges;
}

bool MetricsSnapshot::has_counter(std::string_view name) const {
  return counters.find(std::string(name)) != counters.end();
}

std::uint64_t MetricsSnapshot::counter(std::string_view name) const {
  const auto it = counters.find(std::string(name));
  return it == counters.end() ? 0 : it->second;
}

bool MetricsSnapshot::has_histogram(std::string_view name) const {
  return histograms.find(std::string(name)) != histograms.end();
}

std::string MetricsSnapshot::to_json() const {
  json::Writer w;
  w.begin_object();
  w.key("counters").begin_object();
  for (const auto& [name, value] : counters) {
    w.field(name, static_cast<std::int64_t>(value));
  }
  w.end_object();
  w.key("gauges").begin_object();
  for (const auto& [name, value] : gauges) w.field(name, value);
  w.end_object();
  w.key("histograms").begin_object();
  for (const auto& [name, histogram] : histograms) {
    w.key(name).begin_object();
    w.field("count", static_cast<std::int64_t>(histogram.count));
    w.field("sum", histogram.sum);
    w.key("buckets").begin_array();
    for (std::size_t i = 0; i < histogram.bucket_counts.size(); ++i) {
      w.begin_object();
      if (i < histogram.upper_edges.size()) {
        w.field("le", histogram.upper_edges[i]);
      } else {
        w.field("le", "+inf");
      }
      w.field("count", static_cast<std::int64_t>(histogram.bucket_counts[i]));
      w.end_object();
    }
    w.end_array();
    w.end_object();
  }
  w.end_object();
  w.end_object();
  return w.take();
}

MetricsRegistry& MetricsRegistry::global() {
  // The common-layer pool cannot depend on obs, so the registry points
  // the pool's sinks at its own `pool.*` instruments as it is created —
  // directly, since `catalog_counter` would re-enter this initializer.
  // Never destroyed, so the sinks stay valid for every pool.
  static MetricsRegistry* const registry = [] {
    auto* created = new MetricsRegistry();
    ThreadPoolMetricSinks sinks;
    sinks.tasks = &created->counter(metric::kPoolTasks.name).raw();
    sinks.queue_depth = &created->gauge(metric::kPoolQueueDepth.name).raw();
    set_thread_pool_metric_sinks(sinks);
    return created;
  }();
  return *registry;
}

Counter& MetricsRegistry::counter(std::string_view name) {
  const sdc::MutexLock lock(mutex_);
  const auto it = counters_.find(name);
  if (it != counters_.end()) return *it->second;
  return *counters_.emplace(std::string(name), std::make_unique<Counter>())
              .first->second;
}

Gauge& MetricsRegistry::gauge(std::string_view name) {
  const sdc::MutexLock lock(mutex_);
  const auto it = gauges_.find(name);
  if (it != gauges_.end()) return *it->second;
  return *gauges_.emplace(std::string(name), std::make_unique<Gauge>())
              .first->second;
}

Histogram& MetricsRegistry::histogram(std::string_view name,
                                      std::vector<double> upper_edges) {
  const sdc::MutexLock lock(mutex_);
  const auto it = histograms_.find(name);
  if (it != histograms_.end()) return *it->second;
  return *histograms_
              .emplace(std::string(name),
                       std::make_unique<Histogram>(std::move(upper_edges)))
              .first->second;
}

MetricsSnapshot MetricsRegistry::snapshot() const {
  const sdc::MutexLock lock(mutex_);
  MetricsSnapshot out;
  for (const auto& [name, counter] : counters_) {
    out.counters.emplace(name, counter->value());
  }
  for (const auto& [name, gauge] : gauges_) {
    out.gauges.emplace(name, gauge->value());
  }
  for (const auto& [name, histogram] : histograms_) {
    MetricsSnapshot::HistogramValue value;
    value.count = histogram->count();
    value.sum = histogram->sum();
    value.upper_edges = histogram->upper_edges();
    value.bucket_counts = histogram->bucket_counts();
    out.histograms.emplace(name, std::move(value));
  }
  return out;
}

void MetricsRegistry::reset_values() {
  const sdc::MutexLock lock(mutex_);
  for (const auto& [name, counter] : counters_) counter->reset();
  for (const auto& [name, gauge] : gauges_) gauge->reset();
  for (const auto& [name, histogram] : histograms_) histogram->reset();
}

}  // namespace sdc::obs
