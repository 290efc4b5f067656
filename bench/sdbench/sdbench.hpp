// sdbench — the repository benchmark (README.md in this directory has the
// workloads, metrics, bounds and the layer -> metric -> workload map).
//
// Process layout of one workload run.  The orchestrator (main.cpp) never
// runs the program's threaded code before it forks, so every child starts
// single-threaded:
//
//   generator child   writes the seeded inputs and computes the serial
//                     (T=1) reference digests; its wall time is bench.gen_s
//   setup probes      fresh processes that stop at "ready" (setup_s)
//   measuring child   the program under test: set-up, timed runs (and for
//                     follow-live, serving); its ru_maxrss is peak_rss_mb
//   load generator    follow-live only: two threads (writer, scraper) and
//                     one connection at a time against the measuring child
#pragma once

#include <pthread.h>
#include <unistd.h>

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <exception>
#include <filesystem>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace sdbench {

namespace fs = std::filesystem;

inline constexpr std::string_view kWorkloads[] = {"collection", "dense-rm",
                                                  "fleet", "follow-live"};

/// Input sizes and schedule constants.  The defaults are the benchmark;
/// `smoke_sizes()` shrinks every dimension for the ctest smoke run.
struct Sizes {
  std::int32_t collection_queries = 2000;
  std::size_t dense_lines = 2'000'000;
  std::size_t dense_apps = 2000;
  std::size_t fleet_corpora = 400;
  /// Open-loop write rate of the live trace (lines/s) and its length in
  /// queries per measured second (~133 lines per query, so the writer
  /// runs for about the measured time).
  double live_rate = 20000;
  double live_queries_per_s = 150;
  std::size_t live_rotate_every = 16000;
  double live_poll_sleep_s = 0.05;
  /// The live scraper's pause between two GETs.
  double scrape_interval_s = 0.1;
  std::size_t setup_probes = 7;
  std::size_t min_runs = 3;
};

[[nodiscard]] Sizes smoke_sizes();

struct Config {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Worker threads per layer: min(4, nproc).
  std::size_t threads = 1;
  /// This workload's scratch directory (inputs, child results).
  fs::path dir;
  /// Where to keep the traced run's Perfetto document ("" = discard).
  fs::path trace_out;
  Sizes sizes;
};

/// follow-live's control block in anonymous shared memory, created by the
/// orchestrator before it forks the measuring child and the load
/// generator.
struct Shared {
  /// Process-shared: the poll loop holds it around `poll_once`, the live
  /// writer around its rotation renames (see loadgen.cpp for why).
  pthread_mutex_t poll_mu;
  std::atomic<int> port{0};
  /// Set by the measuring child once ready: scraping (and the live
  /// writer) may start.
  std::atomic<int> serving{0};
  std::atomic<int> writer_done{0};
  /// Set by the measuring child after its last publish (live: the drained
  /// document): one final scrape, then the load generator finishes.
  std::atomic<int> session_done{0};
  std::atomic<int> scrape_done{0};
  std::atomic<int> abort{0};
};

/// Flat bag of named numbers, number lists and strings: how children hand
/// results to the orchestrator (one JSON file each in `Config::dir`).
struct Record {
  std::map<std::string, double> num;
  std::map<std::string, std::vector<double>> list;
  std::map<std::string, std::string> text;

  [[nodiscard]] double get(const std::string& key, double fallback = 0) const;
  [[nodiscard]] const std::vector<double>& values(const std::string& key) const;
  [[nodiscard]] std::string str(const std::string& key) const;
  void save(const fs::path& file) const;
  [[nodiscard]] static std::optional<Record> load(const fs::path& file);
};

// --- util.cpp ----------------------------------------------------------------

/// CLOCK_MONOTONIC seconds: comparable across the benchmark's processes.
[[nodiscard]] double now_s();
void sleep_s(double seconds);

struct Summary {
  double median = 0;
  double p90 = 0;
  std::size_t n = 0;
};
/// Nearest-rank-interpolated percentile (p in [0, 100]); 0 when empty.
[[nodiscard]] double percentile(std::vector<double> samples, double p);
[[nodiscard]] Summary summarize(const std::vector<double>& samples);

/// FNV-1a 64 of `bytes`, as 16 hex digits.
[[nodiscard]] std::string digest(std::string_view bytes);
/// Round-trip rendering of a double ("%.17g"; non-finite -> 0).
[[nodiscard]] std::string num(double value);

/// Writes (truncates) a file; throws on I/O failure.
void write_text(const fs::path& file, std::string_view content);
/// Reads a whole file; nullopt when unreadable.
[[nodiscard]] std::optional<std::string> read_text(const fs::path& file);

struct HttpGet {
  int status = 0;  // 0 = connection failed
  std::string body;
  double seconds = 0;
};
/// One `GET path` against 127.0.0.1:port on a fresh connection, timed
/// from connect to the server's close.
[[nodiscard]] HttpGet http_get(int port, const std::string& path);

/// Forks; the child runs `body` and `_exit`s with its return value (1 on
/// an escaped exception).  Flushes stdio first so buffered output is not
/// duplicated.  Returns -1 when fork fails.
template <typename Body>
pid_t spawn(Body&& body) {
  std::fflush(nullptr);
  const pid_t pid = ::fork();
  if (pid != 0) return pid;
  int code = 1;
  try {
    code = body();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "sdbench: child failed: %s\n", e.what());
  }
  std::fflush(nullptr);
  ::_exit(code);
}

struct ChildExit {
  bool ok = false;        // exited 0
  bool timed_out = false;
  int status = 0;         // exit code, or 128 + signal
};
/// Waits for every pid until `deadline` (now_s() scale); kills the rest
/// with SIGKILL after it.  When one child fails, `shared->abort` is set
/// so its peers wind down.
std::vector<ChildExit> wait_children(const std::vector<pid_t>& pids,
                                     double deadline, Shared* shared);

/// ru_maxrss of the calling process so far, in MB.
[[nodiscard]] double peak_rss_mb();

/// Keeps memory the process frees in its heap instead of returning it to
/// the kernel (glibc's trim and per-allocation mmap thresholds).  On a
/// virtual machine with free-page reporting, returned pages go back to the
/// hypervisor and are re-faulted from the host on reuse — a cost that
/// varies with the host.  The load generator calls it so the client's
/// multi-megabyte response buffers do not add that cost to every scrape;
/// the measuring child keeps the program's default allocator behaviour.
void keep_freed_memory();

/// Maps a fresh, initialized Shared block (MAP_SHARED | MAP_ANONYMOUS).
[[nodiscard]] Shared* map_shared();
void unmap_shared(Shared* shared);

/// Files and bytes of the regular files under `dir` (recursive).
struct TreeSize {
  std::size_t files = 0;
  std::size_t bytes = 0;
};
[[nodiscard]] TreeSize tree_size(const fs::path& dir);

// --- entry points of the children ------------------------------------------

/// generate.cpp: writes the workload's inputs and `gen.json`.
int generate(const Config& config);
/// measure.cpp: the program under test.  `probe` stops at ready; `shared`
/// is null for batch workloads.
int measure(const Config& config, const Record& gen, double t_fork, bool probe,
            Shared* shared, const fs::path& out);
/// loadgen.cpp: follow-live's writer and scraper.
int loadgen(const Config& config, Shared* shared, const fs::path& out);

/// compare.cpp: `sdbench compare A B [--benchmark FILE]`.
int compare_main(const std::vector<std::string>& args);

}  // namespace sdbench
