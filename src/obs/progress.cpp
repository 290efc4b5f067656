#include "obs/progress.hpp"

#include <cmath>
#include <cstdio>

namespace sdc::obs {

void ProgressMeter::sample(std::uint64_t done, double elapsed_s) noexcept {
  if (elapsed_s < elapsed_s_) elapsed_s = elapsed_s_;
  if (!have_sample_) {
    have_sample_ = true;
    done_ = done;
    elapsed_s_ = elapsed_s;
    if (elapsed_s > 0.0) rate_ = static_cast<double>(done) / elapsed_s;
    return;
  }
  const double dt = elapsed_s - elapsed_s_;
  if (dt > 0.0 && done >= done_) {
    const double instant = static_cast<double>(done - done_) / dt;
    // Exponential smoothing keeps the ETA from jittering with per-chunk
    // burstiness while still tracking sustained rate changes.
    rate_ = rate_ == 0.0 ? instant : 0.7 * rate_ + 0.3 * instant;
  }
  done_ = done;
  elapsed_s_ = elapsed_s;
}

std::optional<double> ProgressMeter::eta_s() const noexcept {
  if (expected_ == 0 || rate_ <= 0.0 || done_ >= expected_) return std::nullopt;
  return static_cast<double>(expected_ - done_) / rate_;
}

std::string ProgressMeter::render() const {
  char buf[64];
  std::string line = "mining ";
  if (expected_ > 0) {
    const double pct =
        100.0 * static_cast<double>(done_) / static_cast<double>(expected_);
    std::snprintf(buf, sizeof(buf), "%5.1f%% | ", pct > 100.0 ? 100.0 : pct);
    line += buf;
    line += std::to_string(done_) + "/" + std::to_string(expected_) + " bytes";
  } else {
    line += std::to_string(done_) + " bytes";
  }
  line += " | " + humanize_count(rate_) + " bytes/s";
  if (const auto eta = eta_s()) {
    line += " | ETA " + humanize_seconds(*eta);
  }
  return line;
}

std::string humanize_count(double value) {
  char buf[32];
  if (value < 0.0) value = 0.0;
  if (value < 1000.0) {
    std::snprintf(buf, sizeof(buf), "%.0f", value);
  } else if (value < 1e6) {
    std::snprintf(buf, sizeof(buf), "%.1fk", value / 1e3);
  } else if (value < 1e9) {
    std::snprintf(buf, sizeof(buf), "%.1fM", value / 1e6);
  } else {
    std::snprintf(buf, sizeof(buf), "%.1fG", value / 1e9);
  }
  return buf;
}

std::string humanize_seconds(double seconds) {
  char buf[32];
  if (seconds < 0.0) seconds = 0.0;
  const auto whole = static_cast<std::uint64_t>(std::llround(seconds));
  if (whole < 60) {
    std::snprintf(buf, sizeof(buf), "%llus",
                  static_cast<unsigned long long>(whole));
  } else if (whole < 3600) {
    std::snprintf(buf, sizeof(buf), "%llum%02llus",
                  static_cast<unsigned long long>(whole / 60),
                  static_cast<unsigned long long>(whole % 60));
  } else {
    std::snprintf(buf, sizeof(buf), "%lluh%02llum",
                  static_cast<unsigned long long>(whole / 3600),
                  static_cast<unsigned long long>((whole % 3600) / 60));
  }
  return buf;
}

}  // namespace sdc::obs
