#include <arpa/inet.h>
#include <malloc.h>
#include <netinet/in.h>
#include <signal.h>
#include <sys/mman.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <sys/wait.h>
#include <time.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <fstream>
#include <limits>
#include <new>
#include <sstream>
#include <stdexcept>

#include "common/json.hpp"
#include "obs/json_parse.hpp"
#include "sdbench.hpp"

namespace sdbench {

Sizes smoke_sizes() {
  Sizes s;
  s.collection_queries = 60;
  s.dense_lines = 40'000;
  s.dense_apps = 100;
  s.fleet_corpora = 12;
  s.live_queries_per_s = 60;
  s.live_rotate_every = 400;
  s.scrape_interval_s = 0.02;
  s.setup_probes = 1;
  return s;
}

double now_s() {
  timespec ts{};
  ::clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<double>(ts.tv_sec) +
         static_cast<double>(ts.tv_nsec) * 1e-9;
}

void sleep_s(double seconds) {
  if (seconds <= 0) return;
  timespec ts{};
  ts.tv_sec = static_cast<time_t>(seconds);
  ts.tv_nsec =
      static_cast<long>((seconds - static_cast<double>(ts.tv_sec)) * 1e9);
  while (::nanosleep(&ts, &ts) != 0 && errno == EINTR) {
  }
}

double percentile(std::vector<double> samples, double p) {
  if (samples.empty()) return 0;
  std::sort(samples.begin(), samples.end());
  const double rank = p / 100.0 * static_cast<double>(samples.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(rank));
  const std::size_t hi = std::min(lo + 1, samples.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return samples[lo] + (samples[hi] - samples[lo]) * frac;
}

Summary summarize(const std::vector<double>& samples) {
  return Summary{percentile(samples, 50), percentile(samples, 90),
                 samples.size()};
}

std::string digest(std::string_view bytes) {
  std::uint64_t h = 14695981039346656037ull;
  for (const char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ull;
  }
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(h));
  return buf;
}

std::string num(double value) {
  if (!std::isfinite(value)) return "0";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  return buf;
}

void write_text(const fs::path& file, std::string_view content) {
  std::ofstream out(file, std::ios::binary | std::ios::trunc);
  out.write(content.data(), static_cast<std::streamsize>(content.size()));
  if (!out) throw std::runtime_error("cannot write " + file.string());
}

std::optional<std::string> read_text(const fs::path& file) {
  std::ifstream in(file, std::ios::binary);
  if (!in) return std::nullopt;
  std::stringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

// --- Record ------------------------------------------------------------------

double Record::get(const std::string& key, double fallback) const {
  const auto it = num.find(key);
  return it == num.end() ? fallback : it->second;
}

const std::vector<double>& Record::values(const std::string& key) const {
  static const std::vector<double> kEmpty;
  const auto it = list.find(key);
  return it == list.end() ? kEmpty : it->second;
}

std::string Record::str(const std::string& key) const {
  const auto it = text.find(key);
  return it == text.end() ? std::string() : it->second;
}

void Record::save(const fs::path& file) const {
  sdc::json::Writer w;
  w.begin_object();
  w.key("num").begin_object();
  for (const auto& [key, value] : num) w.key(key).raw(sdbench::num(value));
  w.end_object();
  w.key("list").begin_object();
  for (const auto& [key, values] : list) {
    w.key(key).begin_array();
    for (const double value : values) w.raw(sdbench::num(value));
    w.end_array();
  }
  w.end_object();
  w.key("text").begin_object();
  for (const auto& [key, value] : text) w.field(key, value);
  w.end_object();
  w.end_object();
  write_text(file, w.str());
}

std::optional<Record> Record::load(const fs::path& file) {
  const std::optional<std::string> text = read_text(file);
  if (!text) return std::nullopt;
  sdc::obs::JsonValue doc;
  std::string error;
  if (!sdc::obs::parse_json(*text, doc, error) || !doc.object()) {
    return std::nullopt;
  }
  Record record;
  const sdc::obs::JsonObject& root = *doc.object();
  if (const auto* v = sdc::obs::json_find(root, "num"); v && v->object()) {
    for (const auto& [key, value] : *v->object()) {
      if (const double* d = value.number()) record.num[key] = *d;
    }
  }
  if (const auto* v = sdc::obs::json_find(root, "list"); v && v->object()) {
    for (const auto& [key, value] : *v->object()) {
      std::vector<double>& out = record.list[key];
      if (const auto* array = value.array()) {
        for (const auto& item : *array) {
          if (const double* d = item.number()) out.push_back(*d);
        }
      }
    }
  }
  if (const auto* v = sdc::obs::json_find(root, "text"); v && v->object()) {
    for (const auto& [key, value] : *v->object()) {
      if (const std::string* s = value.string()) record.text[key] = *s;
    }
  }
  return record;
}

// --- HTTP client -------------------------------------------------------------

HttpGet http_get(int port, const std::string& path) {
  HttpGet result;
  const double start = now_s();
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) return result;
  timeval timeout{5, 0};
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof(timeout));
  ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &timeout, sizeof(timeout));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    ::close(fd);
    return result;
  }
  const std::string request = "GET " + path +
                              " HTTP/1.1\r\nHost: 127.0.0.1\r\n"
                              "Connection: close\r\n\r\n";
  std::size_t sent = 0;
  while (sent < request.size()) {
    const ssize_t n = ::send(fd, request.data() + sent, request.size() - sent,
                             MSG_NOSIGNAL);
    if (n <= 0) {
      ::close(fd);
      return result;
    }
    sent += static_cast<std::size_t>(n);
  }
  std::string response;
  response.reserve(1 << 16);
  char buf[1 << 16];
  while (true) {
    const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    if (n <= 0) break;
    response.append(buf, static_cast<std::size_t>(n));
  }
  ::close(fd);
  result.seconds = now_s() - start;
  if (response.rfind("HTTP/1.", 0) == 0 && response.size() > 12) {
    result.status = std::atoi(response.c_str() + 9);
  }
  const std::size_t head_end = response.find("\r\n\r\n");
  if (head_end != std::string::npos) {
    result.body = response.substr(head_end + 4);
  }
  return result;
}

// --- processes ---------------------------------------------------------------

std::vector<ChildExit> wait_children(const std::vector<pid_t>& pids,
                                     double deadline, Shared* shared) {
  std::vector<ChildExit> exits(pids.size());
  std::vector<bool> done(pids.size(), false);
  std::size_t remaining = pids.size();
  for (std::size_t i = 0; i < pids.size(); ++i) {
    if (pids[i] < 0) {
      done[i] = true;
      --remaining;
      if (shared) shared->abort.store(1);
    }
  }
  bool killed = false;
  while (remaining > 0) {
    bool progressed = false;
    for (std::size_t i = 0; i < pids.size(); ++i) {
      if (done[i]) continue;
      int status = 0;
      const pid_t got = ::waitpid(pids[i], &status, WNOHANG);
      if (got != pids[i]) continue;
      progressed = true;
      done[i] = true;
      --remaining;
      ChildExit& exit = exits[i];
      exit.timed_out = killed;
      exit.status = WIFEXITED(status) ? WEXITSTATUS(status)
                                      : 128 + WTERMSIG(status);
      exit.ok = WIFEXITED(status) && WEXITSTATUS(status) == 0 && !killed;
      if (!exit.ok && shared) shared->abort.store(1);
    }
    if (remaining == 0) break;
    if (!killed && now_s() > deadline) {
      for (std::size_t i = 0; i < pids.size(); ++i) {
        if (!done[i]) ::kill(pids[i], SIGKILL);
      }
      killed = true;
    }
    if (!progressed) sleep_s(0.002);
  }
  return exits;
}

double peak_rss_mb() {
  rusage usage{};
  ::getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

void keep_freed_memory() {
  ::mallopt(M_MMAP_THRESHOLD, 32 << 20);
  ::mallopt(M_TRIM_THRESHOLD, std::numeric_limits<int>::max());
}

Shared* map_shared() {
  void* memory = ::mmap(nullptr, sizeof(Shared), PROT_READ | PROT_WRITE,
                        MAP_SHARED | MAP_ANONYMOUS, -1, 0);
  if (memory == MAP_FAILED) throw std::runtime_error("mmap of shared block");
  auto* shared = new (memory) Shared();
  pthread_mutexattr_t attr;
  ::pthread_mutexattr_init(&attr);
  ::pthread_mutexattr_setpshared(&attr, PTHREAD_PROCESS_SHARED);
  ::pthread_mutex_init(&shared->poll_mu, &attr);
  ::pthread_mutexattr_destroy(&attr);
  return shared;
}

void unmap_shared(Shared* shared) {
  if (shared == nullptr) return;
  ::pthread_mutex_destroy(&shared->poll_mu);
  shared->~Shared();
  ::munmap(shared, sizeof(Shared));
}

TreeSize tree_size(const fs::path& dir) {
  TreeSize size;
  for (const auto& entry : fs::recursive_directory_iterator(dir)) {
    if (!entry.is_regular_file()) continue;
    ++size.files;
    size.bytes += static_cast<std::size_t>(entry.file_size());
  }
  return size;
}

}  // namespace sdbench
