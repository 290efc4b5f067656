// The load generator of follow-live: one process, two threads (writer,
// scraper), one connection at a time.  Batch workloads have none.
//
// Scraper: closed loop — GET /analysis, then wait the interval, from the
// moment the service is ready until its last publish, plus one final GET
// of the drained document.
//
// Writer: open loop — line i of the replay is due at
// t0 + i / rate and is appended to its file then, however far the service
// has fallen behind; each line's lateness is recorded, and its 99th
// percentile is bounded by the validity gate.  Files appear as their first
// line is due.  rm.log is rotated by
// rename (logrotate order: rm.log.N oldest, rm.log live) every
// `live_rotate_every` RM lines.
//
// Rotation is made atomic with respect to polls by construction: the
// renames run under the poll mutex the measuring child holds around
// `poll_once`, and the fresh rm.log is written in a staging directory
// until then.  Real logrotate does not coordinate with a tailer like this.
// `FollowService` reopens a tail by its name each poll, so a base file
// renamed and recreated between the directory scan and the read would be
// read twice; the benchmark keeps clear of that window, so its rotation
// parity gate does not cover that race.  The mutex can go once the tailer
// follows a renamed base file by its open descriptor.
#include <fcntl.h>
#include <sys/uio.h>

#include <stdexcept>
#include <thread>

#include "corpus.hpp"
#include "sdbench.hpp"

namespace sdbench {

namespace {

struct Scrapes {
  std::vector<double> seconds;
  std::vector<double> status;
  std::string last_body;

  void get(int port) {
    HttpGet got = http_get(port, "/analysis");
    seconds.push_back(got.seconds);
    status.push_back(got.status);
    last_body = std::move(got.body);
  }
};

class LiveWriter {
 public:
  LiveWriter(const Replay& replay, const Config& config, Shared* shared)
      : replay_(replay),
        live_(config.dir / "live"),
        stage_(config.dir / "stage"),
        shared_(shared),
        rotate_every_(config.sizes.live_rotate_every),
        fds_(replay.files.size(), -1) {
    for (std::size_t f = 0; f < replay.files.size(); ++f) {
      if (replay.files[f] == "rm.log") rm_ = static_cast<std::int64_t>(f);
    }
  }
  ~LiveWriter() { close_all(); }
  LiveWriter(const LiveWriter&) = delete;
  LiveWriter& operator=(const LiveWriter&) = delete;

  /// Writes every line at its due time; returns when all are visible.
  void run(double rate) {
    late_.reserve(replay_.lines.size());
    t0_ = now_s() + 0.01;
    for (std::size_t i = 0; i < replay_.lines.size(); ++i) {
      const double due = t0_ + static_cast<double>(i) / rate;
      double now = now_s();
      if (due - now > 0.0005) {
        sleep_s(due - now);
        now = now_s();
      }
      late_.push_back(std::max(0.0, now - due));
      const std::uint32_t file = replay_.file_of[i];
      if (static_cast<std::int64_t>(file) == rm_) {
        if (rm_written_ > 0 && rm_written_ % rotate_every_ == 0) {
          begin_rotation();
        }
        ++rm_written_;
      }
      append(fd_for(file), replay_.lines[i]);
      if (pending_) finish_rotation(false);
      if ((i & 1023) == 0 && shared_->abort.load()) {
        throw std::runtime_error("writer aborted");
      }
    }
    while (pending_) finish_rotation(true);
    close_all();
    shared_->writer_done.store(1, std::memory_order_release);
  }

  [[nodiscard]] double t0() const { return t0_; }
  /// Per written line: how far behind its due time it was written.
  [[nodiscard]] const std::vector<double>& late() const { return late_; }

 private:
  static constexpr std::size_t kMaxOpenFiles = 512;

  int fd_for(std::uint32_t file) {
    if (fds_[file] >= 0) return fds_[file];
    if (open_ >= kMaxOpenFiles) {
      for (std::size_t f = 0; f < fds_.size(); ++f) {
        if (static_cast<std::int64_t>(f) != rm_) close_fd(f);
      }
    }
    fds_[file] = open_or_throw(live_ / replay_.files[file]);
    ++open_;
    return fds_[file];
  }

  static int open_or_throw(const fs::path& path) {
    const int fd = ::open(path.c_str(),
                          O_WRONLY | O_CREAT | O_APPEND | O_CLOEXEC, 0644);
    if (fd < 0) throw std::runtime_error("cannot open " + path.string());
    return fd;
  }

  static void append(int fd, const std::string& line) {
    iovec parts[2] = {{const_cast<char*>(line.data()), line.size()},
                      {const_cast<char*>("\n"), 1}};
    const ssize_t want = static_cast<ssize_t>(line.size() + 1);
    const ssize_t got = ::writev(fd, parts, 2);
    if (got != want) throw std::runtime_error("short write to a live file");
  }

  void close_fd(std::size_t file) {
    if (fds_[file] < 0) return;
    ::close(fds_[file]);
    fds_[file] = -1;
    --open_;
  }

  void close_all() {
    for (std::size_t f = 0; f < fds_.size(); ++f) close_fd(f);
  }

  /// RM lines go to a staged file until the renames can run between polls.
  void begin_rotation() {
    while (pending_) finish_rotation(true);
    const auto rm = static_cast<std::size_t>(rm_);
    close_fd(rm);
    fds_[rm] =
        ::open((stage_ / "rm.log").c_str(),
               O_WRONLY | O_CREAT | O_TRUNC | O_APPEND | O_CLOEXEC, 0644);
    if (fds_[rm] < 0) throw std::runtime_error("cannot open staged rm.log");
    ++open_;
    pending_ = true;
  }

  /// Shifts rm.log.K -> rm.log.K+1, rm.log -> rm.log.1 and moves the staged
  /// file in as rm.log, all while no poll runs.  The staged fd stays valid
  /// across the rename.  Without `block`, gives up when a poll is running.
  void finish_rotation(bool block) {
    while (::pthread_mutex_trylock(&shared_->poll_mu) != 0) {
      if (!block) return;
      if (shared_->abort.load()) throw std::runtime_error("writer aborted");
      sleep_s(0.0005);
    }
    bool ok = true;
    for (std::size_t k = rotations_; k >= 1 && ok; --k) {
      ok = std::rename(segment(k).c_str(), segment(k + 1).c_str()) == 0;
    }
    ok = ok && std::rename((live_ / "rm.log").c_str(), segment(1).c_str()) == 0;
    ok = ok && std::rename((stage_ / "rm.log").c_str(),
                           (live_ / "rm.log").c_str()) == 0;
    ::pthread_mutex_unlock(&shared_->poll_mu);
    if (!ok) throw std::runtime_error("rotation rename failed");
    ++rotations_;
    pending_ = false;
  }

  [[nodiscard]] fs::path segment(std::size_t k) const {
    return live_ / ("rm.log." + std::to_string(k));
  }

  const Replay& replay_;
  fs::path live_;
  fs::path stage_;
  Shared* shared_;
  std::size_t rotate_every_;
  std::vector<int> fds_;
  std::size_t open_ = 0;
  std::int64_t rm_ = -1;
  std::size_t rm_written_ = 0;
  std::size_t rotations_ = 0;
  bool pending_ = false;
  double t0_ = 0;
  std::vector<double> late_;
};

}  // namespace

int loadgen(const Config& config, Shared* shared, const fs::path& out) {
  keep_freed_memory();
  const Replay replay = load_replay(config.dir / "replay.bin");

  const double give_up = now_s() + 3 * config.seconds + 120;
  while (!shared->serving.load(std::memory_order_acquire)) {
    if (shared->abort.load() || now_s() > give_up) {
      throw std::runtime_error("the measuring child never became ready");
    }
    sleep_s(0.002);
  }
  const int port = shared->port.load();
  const Sizes& sizes = config.sizes;
  Record rec;
  Scrapes scrapes;
  std::thread scraper([&scrapes, shared, port, &sizes] {
    while (!shared->session_done.load(std::memory_order_acquire) &&
           !shared->abort.load()) {
      scrapes.get(port);
      sleep_s(sizes.scrape_interval_s);
    }
    if (!shared->abort.load()) scrapes.get(port);  // the drained document
  });
  try {
    LiveWriter writer(replay, config, shared);
    writer.run(sizes.live_rate);
    rec.num["writer_t0"] = writer.t0();
    rec.num["rate"] = sizes.live_rate;
    rec.num["lines_written"] = static_cast<double>(replay.lines.size());
    rec.num["late_p99"] = percentile(writer.late(), 99);
    rec.num["late_max"] = percentile(writer.late(), 100);
  } catch (...) {
    shared->abort.store(1);
    scraper.join();
    throw;
  }
  scraper.join();
  shared->scrape_done.store(1, std::memory_order_release);
  rec.list["scrape_s"] = scrapes.seconds;
  rec.list["scrape_status"] = scrapes.status;
  rec.text["final_digest"] = digest(scrapes.last_body);
  rec.save(out);
  return 0;
}

}  // namespace sdbench
