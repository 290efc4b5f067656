// Sample statistics used by SDchecker reports and the benchmark harness:
// percentiles, CDFs, mean / standard deviation (paper Fig. 4 reports CDF,
// normalized means, and stddev of each delay component).
#pragma once

#include <cstddef>
#include <string>
#include <vector>

namespace sdc {

/// Aggregates a set of scalar samples and answers distribution queries.
/// Samples are stored.  A query works on one scratch copy, made on the
/// first query after an `add` and reused until the next: `percentile`
/// selects the two order statistics it interpolates between, and
/// `min`, `max` and `cdf` sort the copy (a sorted copy then serves
/// `percentile` too).
class SampleSet {
 public:
  SampleSet() = default;

  void add(double v);
  void add_all(const std::vector<double>& vs);

  [[nodiscard]] std::size_t size() const noexcept { return samples_.size(); }
  [[nodiscard]] bool empty() const noexcept { return samples_.empty(); }

  [[nodiscard]] double mean() const;
  /// Sample standard deviation (N-1 denominator); 0 for fewer than 2 samples.
  [[nodiscard]] double stddev() const;
  [[nodiscard]] double min() const;
  [[nodiscard]] double max() const;

  /// Linear-interpolated percentile, p in [0, 100]: the same value as
  /// interpolating over a sorted copy, without sorting one.
  [[nodiscard]] double percentile(double p) const;
  [[nodiscard]] double median() const { return percentile(50.0); }
  [[nodiscard]] double p95() const { return percentile(95.0); }

  /// Empirical CDF sampled at `points` evenly spaced quantiles, returned
  /// as (value, cumulative probability) pairs suitable for plotting.
  [[nodiscard]] std::vector<std::pair<double, double>> cdf(
      std::size_t points = 100) const;

  [[nodiscard]] const std::vector<double>& samples() const noexcept {
    return samples_;
  }

 private:
  /// What `scratch_` holds: nothing current, the samples in some order,
  /// or the samples sorted.
  enum class Scratch { kStale, kCopied, kSorted };

  /// Makes `scratch_` a current copy of the samples; returns whether it
  /// is sorted.
  bool ensure_copied() const;
  void ensure_sorted() const;

  std::vector<double> samples_;
  mutable std::vector<double> scratch_;
  mutable Scratch scratch_state_ = Scratch::kStale;
};

/// Fixed-width text rendering helpers for report tables.
namespace fmt {
/// Renders seconds with 2 decimals, e.g. "17.20s".
std::string secs(double seconds);
/// Renders a ratio as a percentage with 1 decimal, e.g. "41.3%".
std::string pct(double ratio);
}  // namespace fmt

}  // namespace sdc
