#include "common/stats.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <stdexcept>

namespace sdc {

void SampleSet::add(double v) {
  samples_.push_back(v);
  scratch_state_ = Scratch::kStale;
}

void SampleSet::add_all(const std::vector<double>& vs) {
  samples_.insert(samples_.end(), vs.begin(), vs.end());
  scratch_state_ = Scratch::kStale;
}

double SampleSet::mean() const {
  if (samples_.empty()) return 0.0;
  double sum = 0.0;
  for (double v : samples_) sum += v;
  return sum / static_cast<double>(samples_.size());
}

double SampleSet::stddev() const {
  if (samples_.size() < 2) return 0.0;
  const double m = mean();
  double ss = 0.0;
  for (double v : samples_) ss += (v - m) * (v - m);
  return std::sqrt(ss / static_cast<double>(samples_.size() - 1));
}

double SampleSet::min() const {
  ensure_sorted();
  if (scratch_.empty()) throw std::out_of_range("SampleSet::min on empty set");
  return scratch_.front();
}

double SampleSet::max() const {
  ensure_sorted();
  if (scratch_.empty()) throw std::out_of_range("SampleSet::max on empty set");
  return scratch_.back();
}

double SampleSet::percentile(double p) const {
  if (samples_.empty())
    throw std::out_of_range("SampleSet::percentile on empty set");
  const bool sorted = ensure_copied();
  const auto first = scratch_.begin();
  const auto last = scratch_.end();
  if (p <= 0.0) {
    return sorted ? scratch_.front() : *std::min_element(first, last);
  }
  const double rank = p / 100.0 * static_cast<double>(scratch_.size() - 1);
  const auto lo = p >= 100.0 ? scratch_.size() : static_cast<std::size_t>(rank);
  if (lo + 1 >= scratch_.size()) {
    return sorted ? scratch_.back() : *std::max_element(first, last);
  }
  // The lo-th and (lo+1)-th order statistics: a sorted copy holds them
  // in place; otherwise selection puts the lo-th at `lo` with no larger
  // value before it, so the (lo+1)-th is the least value after it.
  if (!sorted) std::nth_element(first, first + lo, last);
  const double below = scratch_[lo];
  const double above = sorted ? scratch_[lo + 1]
                              : *std::min_element(first + lo + 1, last);
  const double frac = rank - static_cast<double>(lo);
  return below * (1.0 - frac) + above * frac;
}

std::vector<std::pair<double, double>> SampleSet::cdf(std::size_t points) const {
  ensure_sorted();
  std::vector<std::pair<double, double>> out;
  if (scratch_.empty() || points == 0) return out;
  out.reserve(points);
  for (std::size_t i = 0; i < points; ++i) {
    const double q =
        static_cast<double>(i) / static_cast<double>(points - 1 == 0 ? 1 : points - 1);
    out.emplace_back(percentile(q * 100.0), q);
  }
  return out;
}

bool SampleSet::ensure_copied() const {
  if (scratch_state_ == Scratch::kStale) {
    scratch_ = samples_;
    scratch_state_ = Scratch::kCopied;
  }
  return scratch_state_ == Scratch::kSorted;
}

void SampleSet::ensure_sorted() const {
  if (ensure_copied()) return;
  std::sort(scratch_.begin(), scratch_.end());
  scratch_state_ = Scratch::kSorted;
}

namespace fmt {

std::string secs(double seconds) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.2fs", seconds);
  return buf;
}

std::string pct(double ratio) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.1f%%", ratio * 100.0);
  return buf;
}

}  // namespace fmt
}  // namespace sdc
