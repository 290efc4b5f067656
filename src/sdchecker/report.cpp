#include "sdchecker/report.hpp"

#include <array>
#include <cstdio>

#include "obs/metric_catalog.hpp"
#include "obs/metrics.hpp"

namespace sdc::checker {
namespace {

constexpr double kMsToSec = 1e-3;

constexpr DelayComponentSpec kSpecs[] = {
    {"total", &Delays::total, nullptr, &AggregateReport::total},
    {"am", &Delays::am, nullptr, &AggregateReport::am},
    {"cf", &Delays::cf, nullptr, &AggregateReport::cf},
    {"cl", &Delays::cl, nullptr, &AggregateReport::cl},
    {"cl-cf", &Delays::cl_minus_cf, nullptr, &AggregateReport::cl_minus_cf},
    {"driver", &Delays::driver, nullptr, &AggregateReport::driver},
    {"executor", &Delays::executor, nullptr, &AggregateReport::executor},
    {"in-app", &Delays::in_app, nullptr, &AggregateReport::in_app},
    {"out-app", &Delays::out_app, nullptr, &AggregateReport::out_app},
    {"alloc", &Delays::alloc, nullptr, &AggregateReport::alloc},
    {"acquisition", nullptr, &ContainerDelays::acquisition,
     &AggregateReport::acquisition},
    {"localization", nullptr, &ContainerDelays::localization,
     &AggregateReport::localization},
    {"queuing", nullptr, &ContainerDelays::queuing, &AggregateReport::queuing},
    {"launching", nullptr, &ContainerDelays::launching,
     &AggregateReport::launching},
    {"exec-idle", nullptr, &ContainerDelays::executor_idle,
     &AggregateReport::exec_idle},
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
    // Each row's histogram is the sdc.delay.<component> catalog family
    // member named after the row, so it is kind-checked against the
    // metric catalog at registration.
    std::array<obs::Histogram*, std::size(kSpecs)> out{};
    for (std::size_t row = 0; row < out.size(); ++row) {
      out[row] =
          &obs::catalog_histogram(obs::metric::kSdcDelay, kSpecs[row].name);
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
