// Tests for the embedded observability HTTP server and the follow-mode
// serving glue: request parsing and error classes (404/405/400/431,
// early-closed sockets), HEAD semantics, and the concurrent-scrape
// contract — N client threads hammering /metrics, /analysis, /healthz
// and /varz while a FollowService ingests a rotating corpus, every
// /metrics body validating as Prometheus exposition and the final
// /analysis byte-identical to batch analysis.  Runs under TSan in CI.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "harness/scenario.hpp"
#include "obs/http_server.hpp"
#include "obs/metrics.hpp"
#include "obs/prom_export.hpp"
#include "sdchecker/export.hpp"
#include "sdchecker/follow.hpp"
#include "sdchecker/sdchecker.hpp"
#include "sdchecker/serve.hpp"
#include "workloads/tpch.hpp"

namespace sdc {
namespace {

namespace fs = std::filesystem;

// --- raw HTTP client helpers -------------------------------------------

int connect_to(std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  EXPECT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  EXPECT_EQ(::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                      sizeof(addr)),
            0);
  return fd;
}

struct RawResponse {
  int status = 0;
  std::string head;
  std::string body;
};

/// Sends `request` verbatim, reads to EOF (the server closes per
/// request) and splits status/head/body.
RawResponse roundtrip(std::uint16_t port, const std::string& request) {
  const int fd = connect_to(port);
  EXPECT_EQ(::send(fd, request.data(), request.size(), 0),
            static_cast<ssize_t>(request.size()));
  std::string raw;
  char buf[4096];
  ssize_t n = 0;
  while ((n = ::recv(fd, buf, sizeof(buf), 0)) > 0) {
    raw.append(buf, static_cast<std::size_t>(n));
  }
  ::close(fd);
  RawResponse response;
  const std::size_t head_end = raw.find("\r\n\r\n");
  if (head_end == std::string::npos) return response;
  response.head = raw.substr(0, head_end);
  response.body = raw.substr(head_end + 4);
  if (response.head.size() > 12) {
    response.status = std::atoi(response.head.c_str() + 9);
  }
  return response;
}

RawResponse get(std::uint16_t port, const std::string& path) {
  return roundtrip(port,
                   "GET " + path + " HTTP/1.1\r\nHost: x\r\n\r\n");
}

// --- basic server behavior ---------------------------------------------

TEST(HttpServer, ServesRegisteredRoutesAndStripsQuery) {
  obs::HttpServer server;
  server.handle("/ping", [] {
    obs::HttpResponse response;
    response.body = "pong";
    return response;
  });
  ASSERT_TRUE(server.start());
  ASSERT_GT(server.port(), 0);

  EXPECT_EQ(get(server.port(), "/ping").body, "pong");
  EXPECT_EQ(get(server.port(), "/ping?x=1").status, 200);
  server.stop();
  server.stop();  // idempotent
}

TEST(HttpServer, HeadOmitsBodyButKeepsContentLength) {
  obs::HttpServer server;
  server.handle("/ping", [] {
    obs::HttpResponse response;
    response.body = "pong";
    return response;
  });
  ASSERT_TRUE(server.start());
  const RawResponse response =
      roundtrip(server.port(), "HEAD /ping HTTP/1.1\r\n\r\n");
  EXPECT_EQ(response.status, 200);
  EXPECT_TRUE(response.body.empty());
  EXPECT_NE(response.head.find("Content-Length: 4"), std::string::npos);
}

TEST(HttpServer, ErrorClasses) {
  obs::HttpServerOptions options;
  options.max_request_bytes = 256;
  obs::HttpServer server(options);
  server.handle("/ok", [] { return obs::HttpResponse{}; });
  server.handle("/boom", []() -> obs::HttpResponse {
    throw std::runtime_error("kaboom");
  });
  ASSERT_TRUE(server.start());

  EXPECT_EQ(get(server.port(), "/nope").status, 404);
  EXPECT_EQ(roundtrip(server.port(), "POST /ok HTTP/1.1\r\n\r\n").status,
            405);
  EXPECT_EQ(roundtrip(server.port(), "garbage\r\n\r\n").status, 400);
  EXPECT_EQ(roundtrip(server.port(),
                      "GET /ok HTTP/1.1\r\nX: " + std::string(512, 'a') +
                          "\r\n\r\n")
                .status,
            431);
  EXPECT_EQ(get(server.port(), "/boom").status, 500);

  // Early-closed socket: connect, say nothing, hang up.  Must not wedge
  // or crash a worker; the next request still answers.
  ::close(connect_to(server.port()));
  EXPECT_EQ(get(server.port(), "/ok").status, 200);

  const obs::MetricsSnapshot snapshot =
      obs::MetricsRegistry::global().snapshot();
  EXPECT_GE(snapshot.counter("obs.http.errors.not-found"), 1u);
  EXPECT_GE(snapshot.counter("obs.http.errors.bad-method"), 1u);
  EXPECT_GE(snapshot.counter("obs.http.errors.bad-request"), 1u);
  EXPECT_GE(snapshot.counter("obs.http.errors.overlong"), 1u);
  EXPECT_GE(snapshot.counter("obs.http.errors.internal"), 1u);
  EXPECT_GE(snapshot.counter("obs.http.requests"), 5u);
}

// --- follow serving glue -----------------------------------------------

TEST(FollowServe, HealthzFlipsTo503OnStalledPolls) {
  // The publisher reads a stepped clock, so the verdicts depend on the
  // steps alone, never on how long a request took under load.
  std::atomic<std::int64_t> now_ms{0};
  checker::FollowPublisher publisher([&now_ms] {
    return std::chrono::steady_clock::time_point(
        std::chrono::milliseconds(now_ms.load()));
  });
  checker::FollowServeOptions options;
  options.stall_threshold_ms = 1;  // any real pause trips it
  const auto server = checker::make_follow_server(publisher, options);
  ASSERT_TRUE(server->start());

  publisher.touch(3, true);
  EXPECT_EQ(get(server->port(), "/healthz").status, 200);
  now_ms += 20;
  const RawResponse stalled = get(server->port(), "/healthz");
  EXPECT_EQ(stalled.status, 503);
  EXPECT_NE(stalled.body.find("\"status\":\"stalled\""), std::string::npos);
  EXPECT_NE(stalled.body.find("\"polls\":3"), std::string::npos);
  EXPECT_GE(obs::MetricsRegistry::global().snapshot().counter(
                "follow.poll.stall"),
            1u);

  // Recovery: the next poll stamp flips it back.
  publisher.touch(4, true);
  EXPECT_EQ(get(server->port(), "/healthz").status, 200);
}

TEST(FollowServe, MetricsEndpointValidatesAndCoversCatalog) {
  checker::FollowPublisher publisher;
  const auto server = checker::make_follow_server(publisher);
  ASSERT_TRUE(server->start());
  const RawResponse response = get(server->port(), "/metrics");
  EXPECT_EQ(response.status, 200);
  const obs::PromCheckResult check = obs::check_prom_text(response.body);
  EXPECT_TRUE(check.ok) << (check.errors.empty() ? "" : check.errors[0]);
  // The delay family is pre-registered: full histogram series appear
  // before any sample lands.
  EXPECT_NE(response.body.find("sdc_delay_total_bucket{le=\"+Inf\"}"),
            std::string::npos);
  EXPECT_NE(response.body.find("obs_http_requests"), std::string::npos);
}

// --- concurrent scrape under live ingestion ----------------------------

harness::ScenarioResult small_run() {
  harness::ScenarioConfig scenario;
  scenario.seed = 901;
  for (int i = 0; i < 3; ++i) {
    harness::SparkSubmissionPlan plan;
    plan.at = seconds(1 + 7 * i);
    plan.app = workloads::make_tpch_query(1 + i, 1024, 2);
    scenario.spark_jobs.push_back(std::move(plan));
  }
  return harness::run_scenario(scenario);
}

fs::path scratch_dir(const std::string& name) {
  const fs::path dir = fs::temp_directory_path() / name;
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir;
}

std::string join_lines(const std::vector<std::string>& lines) {
  std::string text;
  for (const std::string& line : lines) {
    text += line;
    text += '\n';
  }
  return text;
}

void append_bytes(const fs::path& path, std::string_view bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::app);
  ASSERT_TRUE(out.is_open());
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

std::string_view slice_of(const std::string& text, std::size_t r,
                          std::size_t rounds) {
  const std::size_t begin = text.size() * r / rounds;
  const std::size_t end = text.size() * (r + 1) / rounds;
  return std::string_view(text).substr(begin, end - begin);
}

TEST(FollowServe, ConcurrentScrapesNeverTearAndFinalAnalysisMatchesBatch) {
  const auto run = small_run();
  const fs::path dir = scratch_dir("sdc_serve_concurrent");
  const auto names = run.logs.stream_names();
  ASSERT_GE(names.size(), 2u);
  std::vector<std::string> texts;
  for (const auto& name : names) {
    texts.push_back(join_lines(run.logs.lines(name)));
  }

  checker::FollowService service(dir, checker::FollowOptions{.retire = false});
  checker::FollowPublisher publisher;
  const auto server = checker::make_follow_server(publisher);
  ASSERT_TRUE(server->start());
  const std::uint16_t port = server->port();

  // Clients hammer every endpoint until told to stop; each /metrics and
  // /analysis body must be internally consistent no matter where the
  // poll loop is.
  std::atomic<bool> done{false};
  std::atomic<int> scrapes{0};
  std::vector<std::thread> clients;
  for (int c = 0; c < 4; ++c) {
    clients.emplace_back([&, c] {
      while (!done.load(std::memory_order_relaxed)) {
        const RawResponse metrics = get(port, "/metrics");
        EXPECT_EQ(metrics.status, 200);
        const obs::PromCheckResult check =
            obs::check_prom_text(metrics.body);
        EXPECT_TRUE(check.ok)
            << (check.errors.empty() ? "" : check.errors[0]);
        const RawResponse analysis = get(port, "/analysis");
        EXPECT_EQ(analysis.status, 200);
        EXPECT_FALSE(analysis.body.empty());
        const int healthz = get(port, "/healthz").status;
        EXPECT_TRUE(healthz == 200 || healthz == 503);
        EXPECT_EQ(get(port, "/varz").status, 200);
        if (c == 0) {
          EXPECT_EQ(get(port, "/bogus").status, 404);
        }
        scrapes.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }

  // The poll loop: slices cut mid-line, one stream rotated mid-flight.
  constexpr std::size_t kRounds = 5;
  const std::string rotated = names[0];
  for (std::size_t r = 0; r < kRounds; ++r) {
    for (std::size_t i = 0; i < names.size(); ++i) {
      append_bytes(dir / names[i], slice_of(texts[i], r, kRounds));
    }
    if (r == 2) {
      fs::rename(dir / rotated, dir / (rotated + ".1"));
    }
    service.poll_once();
    checker::FollowPublication publication;
    publication.analysis_json = checker::analysis_json(service.snapshot());
    publication.polls = service.polls();
    publication.quiescent = service.quiescent();
    publisher.publish(std::move(publication));
  }
  while (!service.quiescent()) {
    service.poll_once();
  }
  service.finish();
  {
    checker::FollowPublication publication;
    publication.analysis_json = checker::analysis_json(service.snapshot());
    publication.polls = service.polls();
    publication.quiescent = true;
    publisher.publish(std::move(publication));
  }

  // Let the clients observe the final snapshot at least once more.
  const int floor = scrapes.load() + 2;
  while (scrapes.load() < floor) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  done.store(true);
  for (std::thread& client : clients) client.join();

  // The served document is byte-identical to batch analysis of the same
  // (now quiescent) directory.
  const std::string served = get(port, "/analysis").body;
  const std::string batch =
      checker::analysis_json(checker::SdChecker().analyze_directory(dir));
  EXPECT_EQ(served, batch);
  EXPECT_EQ(server->address(),
            "127.0.0.1:" + std::to_string(server->port()));
}

}  // namespace
}  // namespace sdc
