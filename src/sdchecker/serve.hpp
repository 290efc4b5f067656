// Follow-mode serving glue: the bridge between the single-threaded
// FollowService poll loop and the multi-threaded observability HTTP
// server (ISSUE 9).
//
// The poll loop stays the sole owner of the analyzer.  After each
// non-quiescent poll it *publishes* — renders `analysis_json` once and
// hands the string (plus poll counters and the diagnostics rollup) to a
// `FollowPublisher`, which holds the document as a shared immutable
// string.  Under its mutex a publish swaps one pointer and a scrape
// copies one; the scrape copies the bytes into its response, and the
// publish frees the replaced document, outside the lock.  HTTP handlers
// only read shared documents or the lock-free metrics registry, so a
// scrape holds up ingestion for no more than a pointer copy and
// ingestion can never tear a response.  Publishing only on
// non-quiescent polls is free snapshot reuse: a quiescent poll by
// definition changed nothing the analysis document reflects (retirement
// is invisible to `analysis_json` by the PR 7 parity contract).
//
// Endpoints (`make_follow_server`):
//   /metrics   Prometheus text exposition of the full metric catalog
//   /analysis  the latest published `analysis_json`, byte-identical to
//              batch `analyze` over the same (drained) directory
//   /healthz   liveness JSON: poll age vs the stall threshold (503 when
//              exceeded) + diagnostics severity rollup; reads the poll
//              counters, never the document
//   /varz      raw metrics-registry snapshot JSON
//
// `/healthz` measures the poll age *at request time* from the
// publisher's steady-clock stamp — precisely so a wedged poll thread
// (which can no longer update anything) still flips the probe to 503.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>

#include "common/mutex.hpp"
#include "common/thread_annotations.hpp"
#include "logging/diagnostics.hpp"
#include "obs/http_server.hpp"

namespace sdc::checker {

/// What the poll loop hands to the serving side after a poll.
struct FollowPublication {
  std::string analysis_json;
  std::uint64_t polls = 0;
  bool quiescent = false;
  logging::DiagnosticCounts diag_counts;
};

/// What `/healthz` reports of the last poll: its counters, not its
/// document.
struct FollowHealth {
  std::uint64_t polls = 0;
  bool quiescent = false;
  logging::DiagnosticCounts diag_counts;
};

/// Single-producer (the poll loop), many-reader (HTTP workers) snapshot
/// mailbox.  All methods are safe from any thread; the producer-side
/// `publish`/`touch` are cheap enough for every poll iteration.
class FollowPublisher {
 public:
  /// The clock that stamps polls and measures their age; tests step a
  /// manual one.  Called from any thread.
  using Clock = std::function<std::chrono::steady_clock::time_point()>;

  explicit FollowPublisher(
      Clock clock = [] { return std::chrono::steady_clock::now(); });

  /// Replaces the published snapshot and stamps the poll clock.
  void publish(FollowPublication publication) SDC_EXCLUDES(mu_);

  /// Stamps the poll clock (and poll/quiescence counters) without
  /// re-rendering: the quiescent-poll path, where the analysis document
  /// cannot have changed.
  void touch(std::uint64_t polls, bool quiescent) SDC_EXCLUDES(mu_);

  /// The last published document.  It stays valid, unchanged, for as
  /// long as the caller holds it, whatever is published meanwhile.
  [[nodiscard]] std::shared_ptr<const std::string> analysis() const
      SDC_EXCLUDES(mu_);

  /// The counters of the last publish or touch.
  [[nodiscard]] FollowHealth health() const SDC_EXCLUDES(mu_);

  /// Milliseconds since the last publish/touch, measured now, on the
  /// caller's thread.
  [[nodiscard]] std::int64_t last_poll_age_ms() const SDC_EXCLUDES(mu_);

 private:
  const Clock clock_;
  mutable Mutex mu_;
  std::shared_ptr<const std::string> analysis_ SDC_GUARDED_BY(mu_);
  FollowHealth health_ SDC_GUARDED_BY(mu_);
  std::chrono::steady_clock::time_point last_poll_ SDC_GUARDED_BY(mu_);
};

struct FollowServeOptions {
  std::string host = "127.0.0.1";
  std::uint16_t port = 0;
  /// `/healthz` answers 503 (and bumps `follow.poll.stall`) when the
  /// last poll is older than this.
  std::int64_t stall_threshold_ms = 10000;
};

/// Builds the follow-mode observability server: registers the metric
/// catalog baseline plus every `sdc.delay.*` histogram (so `/metrics`
/// always exposes the complete vocabulary) and installs the four
/// endpoints over `publisher`.  The caller still runs `start()` — and
/// keeps `publisher` alive until after `stop()`.
[[nodiscard]] std::unique_ptr<obs::HttpServer> make_follow_server(
    const FollowPublisher& publisher, const FollowServeOptions& options = {});

/// The `/healthz` body for a given poll age (exposed for tests; also
/// updates `follow.poll.last_age_ms` and, when stalled,
/// `follow.poll.stall`).  `stalled` output decides the 503.
[[nodiscard]] std::string render_healthz_json(const FollowHealth& health,
                                              std::int64_t age_ms,
                                              std::int64_t stall_threshold_ms,
                                              bool* stalled);

}  // namespace sdc::checker
