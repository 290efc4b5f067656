#include "sdchecker/serve.hpp"

#include <utility>

#include "obs/metric_catalog.hpp"
#include "obs/metrics.hpp"
#include "obs/prom_export.hpp"
#include "sdchecker/report.hpp"

namespace sdc::checker {
namespace {

/// Severity rollup of a diagnostics count table: totals per
/// `diagnostic_severity` tier (0 = lost input, 1 = damaged, 2 = suspect).
struct SeverityRollup {
  std::size_t lost = 0;
  std::size_t damaged = 0;
  std::size_t suspect = 0;
};

SeverityRollup roll_up(const logging::DiagnosticCounts& counts) {
  SeverityRollup rollup;
  for (std::size_t i = 0; i < logging::kDiagnosticKindCount; ++i) {
    const auto kind = static_cast<logging::DiagnosticKind>(i);
    switch (logging::diagnostic_severity(kind)) {
      case 0:
        rollup.lost += counts.by_kind[i];
        break;
      case 1:
        rollup.damaged += counts.by_kind[i];
        break;
      default:
        rollup.suspect += counts.by_kind[i];
        break;
    }
  }
  return rollup;
}

}  // namespace

FollowPublisher::FollowPublisher(Clock clock) : clock_(std::move(clock)) {
  // A follow session that has published nothing yet serves `{}`, not a
  // 404: scrapers that start before the first poll still get a parseable
  // document.
  auto empty = std::make_shared<const std::string>("{}");
  const auto now = clock_();
  MutexLock lock(mu_);
  analysis_ = std::move(empty);
  last_poll_ = now;
}

void FollowPublisher::publish(FollowPublication publication) {
  // Declared before the lock, so the replaced document it ends up
  // holding is freed after the lock is released.
  std::shared_ptr<const std::string> document =
      std::make_shared<const std::string>(
          std::move(publication.analysis_json));
  const auto now = clock_();
  MutexLock lock(mu_);
  analysis_.swap(document);
  health_ = {publication.polls, publication.quiescent,
             publication.diag_counts};
  last_poll_ = now;
}

void FollowPublisher::touch(std::uint64_t polls, bool quiescent) {
  const auto now = clock_();
  MutexLock lock(mu_);
  health_.polls = polls;
  health_.quiescent = quiescent;
  last_poll_ = now;
}

std::shared_ptr<const std::string> FollowPublisher::analysis() const {
  MutexLock lock(mu_);
  return analysis_;
}

FollowHealth FollowPublisher::health() const {
  MutexLock lock(mu_);
  return health_;
}

std::int64_t FollowPublisher::last_poll_age_ms() const {
  std::chrono::steady_clock::time_point last_poll;
  {
    MutexLock lock(mu_);
    last_poll = last_poll_;
  }
  return std::chrono::duration_cast<std::chrono::milliseconds>(clock_() -
                                                               last_poll)
      .count();
}

std::string render_healthz_json(const FollowHealth& health,
                                std::int64_t age_ms,
                                std::int64_t stall_threshold_ms,
                                bool* stalled) {
  const bool is_stalled = age_ms > stall_threshold_ms;
  if (stalled != nullptr) *stalled = is_stalled;
  const SeverityRollup rollup = roll_up(health.diag_counts);
  std::string out = "{\"status\":\"";
  out += is_stalled ? "stalled" : "ok";
  out += "\",\"last_poll_age_ms\":" + std::to_string(age_ms);
  out += ",\"stall_threshold_ms\":" + std::to_string(stall_threshold_ms);
  out += ",\"polls\":" + std::to_string(health.polls);
  out += ",\"quiescent\":";
  out += health.quiescent ? "true" : "false";
  out += ",\"diagnostics\":{\"lost\":" + std::to_string(rollup.lost);
  out += ",\"damaged\":" + std::to_string(rollup.damaged);
  out += ",\"suspect\":" + std::to_string(rollup.suspect);
  out += ",\"total\":" + std::to_string(health.diag_counts.total());
  out += "}}";
  return out;
}

std::unique_ptr<obs::HttpServer> make_follow_server(
    const FollowPublisher& publisher, const FollowServeOptions& options) {
  // A scrape must carry the whole vocabulary, not just instruments the
  // process happened to touch: the plain catalog rows...
  obs::register_catalog_baseline();
  // ...and the delay family, whose member set is the delay-component
  // catalog rather than whatever components have produced samples.
  (void)delay_histograms();

  obs::HttpServerOptions http;
  http.host = options.host;
  http.port = options.port;
  auto server = std::make_unique<obs::HttpServer>(http);

  server->handle("/metrics", [] {
    obs::HttpResponse response;
    response.content_type = "text/plain; version=0.0.4; charset=utf-8";
    response.body =
        obs::render_prom_text(obs::MetricsRegistry::global().snapshot());
    return response;
  });

  server->handle("/analysis", [&publisher] {
    obs::HttpResponse response;
    response.content_type = "application/json";
    response.body = *publisher.analysis();
    return response;
  });

  const std::int64_t stall_threshold_ms = options.stall_threshold_ms;
  server->handle("/healthz", [&publisher, stall_threshold_ms] {
    const std::int64_t age_ms = publisher.last_poll_age_ms();
    obs::catalog_gauge(obs::metric::kFollowPollLastAgeMs).set(age_ms);
    bool stalled = false;
    obs::HttpResponse response;
    response.content_type = "application/json";
    response.body = render_healthz_json(publisher.health(), age_ms,
                                        stall_threshold_ms, &stalled);
    if (stalled) {
      obs::catalog_counter(obs::metric::kFollowPollStall).add(1);
      response.status = 503;
    }
    return response;
  });

  server->handle("/varz", [] {
    obs::HttpResponse response;
    response.content_type = "application/json";
    response.body = obs::MetricsRegistry::global().snapshot().to_json();
    return response;
  });

  return server;
}

}  // namespace sdc::checker
