#include "sdchecker/report.hpp"

#include <array>
#include <cstdio>

#include "obs/metric_catalog.hpp"
#include "obs/metrics.hpp"

namespace sdc::checker {
namespace {

constexpr double kMsToSec = 1e-3;

constexpr DelayComponentSpec kSpecs[] = {
    {"total", "sdc.delay.total", &Delays::total, nullptr,
     &AggregateReport::total},
    {"am", "sdc.delay.am", &Delays::am, nullptr, &AggregateReport::am},
    {"cf", "sdc.delay.cf", &Delays::cf, nullptr, &AggregateReport::cf},
    {"cl", "sdc.delay.cl", &Delays::cl, nullptr, &AggregateReport::cl},
    {"cl-cf", "sdc.delay.cl-cf", &Delays::cl_minus_cf, nullptr,
     &AggregateReport::cl_minus_cf},
    {"driver", "sdc.delay.driver", &Delays::driver, nullptr,
     &AggregateReport::driver},
    {"executor", "sdc.delay.executor", &Delays::executor, nullptr,
     &AggregateReport::executor},
    {"in-app", "sdc.delay.in-app", &Delays::in_app, nullptr,
     &AggregateReport::in_app},
    {"out-app", "sdc.delay.out-app", &Delays::out_app, nullptr,
     &AggregateReport::out_app},
    {"alloc", "sdc.delay.alloc", &Delays::alloc, nullptr,
     &AggregateReport::alloc},
    {"acquisition", "sdc.delay.acquisition", nullptr,
     &ContainerDelays::acquisition, &AggregateReport::acquisition},
    {"localization", "sdc.delay.localization", nullptr,
     &ContainerDelays::localization, &AggregateReport::localization},
    {"queuing", "sdc.delay.queuing", nullptr, &ContainerDelays::queuing,
     &AggregateReport::queuing},
    {"launching", "sdc.delay.launching", nullptr, &ContainerDelays::launching,
     &AggregateReport::launching},
    {"exec-idle", "sdc.delay.exec-idle", nullptr,
     &ContainerDelays::executor_idle, &AggregateReport::exec_idle},
};

static_assert(std::size(kSpecs) == kAppComponents + kContainerComponents);

/// Calls `f(row, ms)` for each value of `delays`, row by catalog row: an
/// app-level row's value once, a per-container row's once per worker
/// container that has it.
template <typename F>
void for_each_value(const Delays& delays, F f) {
  for (std::size_t row = 0; row < std::size(kSpecs); ++row) {
    const DelayComponentSpec& spec = kSpecs[row];
    if (spec.app != nullptr) {
      if (const auto& value = delays.*spec.app) f(row, *value);
      continue;
    }
    for (const ContainerDelays& container : delays.containers) {
      const auto& value = container.*spec.container;
      if (!container.is_am && value) f(row, *value);
    }
  }
}

}  // namespace

std::span<const DelayComponentSpec> delay_component_specs() { return kSpecs; }

std::span<obs::Histogram* const> delay_histograms() {
  static const auto table = [] {
    // Registered through the sdc.delay.<component> catalog family, so the
    // names stay kind-checked against the metric catalog too (sdlint's
    // metrics.delay-unbound pins the two catalogs together).
    const std::string_view prefix = obs::metric::kSdcDelay.family_prefix();
    std::array<obs::Histogram*, std::size(kSpecs)> out{};
    for (std::size_t row = 0; row < out.size(); ++row) {
      out[row] = &obs::catalog_histogram(
          obs::metric::kSdcDelay, kSpecs[row].histogram.substr(prefix.size()));
    }
    return out;
  }();
  return table;
}

void observe_delays(const Delays& delays) {
  const auto histograms = delay_histograms();
  for_each_value(delays, [&histograms](std::size_t row, std::int64_t ms) {
    histograms[row]->observe(static_cast<double>(ms));
  });
}

void AggregateReport::add(const Delays& delays) {
  ++apps_;
  for_each_value(delays, [this](std::size_t row, std::int64_t ms) {
    (this->*kSpecs[row].samples).add(static_cast<double>(ms) * kMsToSec);
  });
}

std::vector<std::pair<std::string, const SampleSet*>> AggregateReport::metrics()
    const {
  std::vector<std::pair<std::string, const SampleSet*>> out;
  out.reserve(std::size(kSpecs));
  for (const DelayComponentSpec& spec : kSpecs) {
    out.emplace_back(spec.name, &(this->*spec.samples));
  }
  return out;
}

std::string AggregateReport::render_text() const {
  std::string out;
  char buf[160];
  std::snprintf(buf, sizeof(buf), "%-14s %8s %10s %10s %10s %10s\n", "metric",
                "n", "median", "p95", "mean", "stddev");
  out += buf;
  out += std::string(66, '-') + "\n";
  for (const auto& [name, set] : metrics()) {
    if (set->empty()) {
      std::snprintf(buf, sizeof(buf), "%-14s %8zu %10s %10s %10s %10s\n",
                    name.c_str(), set->size(), "-", "-", "-", "-");
    } else {
      std::snprintf(buf, sizeof(buf),
                    "%-14s %8zu %9.3fs %9.3fs %9.3fs %9.3fs\n", name.c_str(),
                    set->size(), set->median(), set->p95(), set->mean(),
                    set->stddev());
    }
    out += buf;
  }
  return out;
}

std::string AggregateReport::render_csv() const {
  std::string out = "metric,n,median_s,p95_s,mean_s,stddev_s\n";
  char buf[160];
  for (const auto& [name, set] : metrics()) {
    if (set->empty()) {
      std::snprintf(buf, sizeof(buf), "%s,0,,,,\n", name.c_str());
    } else {
      std::snprintf(buf, sizeof(buf), "%s,%zu,%.4f,%.4f,%.4f,%.4f\n",
                    name.c_str(), set->size(), set->median(), set->p95(),
                    set->mean(), set->stddev());
    }
    out += buf;
  }
  return out;
}

}  // namespace sdc::checker
