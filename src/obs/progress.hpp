// Progress reporting for the mining path.
//
// ProgressMeter is the pure, testable part: it turns (bytes done, bytes
// expected, elapsed seconds) samples into a rate + ETA line.  It meters
// bytes because a corpus's line count is unknown until it is read.  The CLI
// owns the impure part — polling the metrics registry on a ticker and
// writing `\r`-terminated lines to stderr only when stderr is a TTY.
#pragma once

#include <cstdint>
#include <optional>
#include <string>

namespace sdc::obs {

class ProgressMeter {
 public:
  /// `expected` may be 0 when the total is unknown; the line then shows
  /// rate only, no percentage or ETA.
  explicit ProgressMeter(std::uint64_t expected = 0) : expected_(expected) {}

  void set_expected(std::uint64_t expected) noexcept { expected_ = expected; }

  /// Feeds a cumulative sample.  `elapsed_s` is seconds since the work
  /// started; samples must be fed in non-decreasing elapsed order.
  void sample(std::uint64_t done, double elapsed_s) noexcept;

  /// Smoothed bytes/second over the sampled window (0 until two samples).
  [[nodiscard]] double rate() const noexcept { return rate_; }

  /// Seconds remaining at the current rate; empty when unknown (no
  /// expected total, rate still 0, or already past the total).
  [[nodiscard]] std::optional<double> eta_s() const noexcept;

  /// One display line, e.g.
  ///   "mining 12.3% | 1234567/10000000 bytes | 2.1M bytes/s | ETA 4s"
  /// No trailing newline; the caller picks '\r' vs '\n'.
  [[nodiscard]] std::string render() const;

 private:
  std::uint64_t expected_ = 0;
  std::uint64_t done_ = 0;
  double elapsed_s_ = 0.0;
  double rate_ = 0.0;
  bool have_sample_ = false;
};

/// "1234" -> "1.2k", "2500000" -> "2.5M"; exact below 1000.
[[nodiscard]] std::string humanize_count(double value);

/// "125" -> "2m05s", "4.2" -> "4s", "3700" -> "1h01m".
[[nodiscard]] std::string humanize_seconds(double seconds);

}  // namespace sdc::obs
