#include "sdchecker/follow.hpp"

#include <dirent.h>
#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <memory>
#include <utility>

#include "common/json.hpp"
#include "obs/json_parse.hpp"
#include "obs/metric_catalog.hpp"
#include "obs/metrics.hpp"
#include "obs/tracer.hpp"
#include "sdchecker/export.hpp"
#include "sdchecker/miner.hpp"

namespace sdc::checker {
namespace {

struct FollowCounters {
  obs::Counter& polls;
  obs::Counter& bytes;
  obs::Counter& streams;
  obs::Counter& rotations;
  obs::Counter& apps_retired;
  obs::Gauge& tails_checked;
  static const FollowCounters& get() {
    static const FollowCounters counters{
        obs::catalog_counter(obs::metric::kFollowPolls),
        obs::catalog_counter(obs::metric::kFollowBytes),
        obs::catalog_counter(obs::metric::kFollowStreams),
        obs::catalog_counter(obs::metric::kFollowRotations),
        obs::catalog_counter(obs::metric::kFollowAppsRetired),
        obs::catalog_gauge(obs::metric::kFollowTailsChecked)};
    return counters;
  }
};

/// (dev, inode) folded into one map key; collisions would need two
/// filesystems mounted inside one log directory.
std::uint64_t inode_key(std::uint64_t dev, std::uint64_t ino) {
  return (dev << 32) ^ ino;
}
std::uint64_t inode_key(const struct ::stat& st) {
  return inode_key(static_cast<std::uint64_t>(st.st_dev),
                   static_cast<std::uint64_t>(st.st_ino));
}

/// The directory, opened for one poll; closed when the poll ends so no
/// descriptor outlives it.
struct CloseDir {
  void operator()(DIR* dir) const { ::closedir(dir); }
};
using DirHandle = std::unique_ptr<DIR, CloseDir>;
DirHandle open_dir(const std::filesystem::path& dir) {
  return DirHandle(::opendir(dir.c_str()));
}

}  // namespace

FollowService::FollowService(std::filesystem::path dir, FollowOptions options)
    : dir_(std::move(dir)),
      options_(options),
      analyzer_(kParkedEventsCap) {
  const std::size_t workers =
      AnalyzeOptions{.analyze_shards = options.analyze_shards}
          .effective_analyze_shards();
  if (workers > 1) pool_ = std::make_unique<ThreadPool>(workers);
}

void FollowService::flush_partial(Tail& tail) {
  tail.lines.finish(
      [&](std::string_view line) { analyzer_.feed(tail.logical, line); });
}

void FollowService::scan(DIR* dir, PollStats& stats) {
  const int dir_fd = ::dirfd(dir);
  struct ::stat dir_st{};
  if (::fstat(dir_fd, &dir_st) != 0) return;
  const auto dev = static_cast<std::uint64_t>(dir_st.st_dev);
  while (const struct ::dirent* entry = ::readdir(dir)) {
    const char* name = entry->d_name;
    if (entry->d_type == DT_REG) {
      // The common case costs no syscall: a regular file already
      // tracked under this name and inode.
      const auto it = tails_.find(inode_key(dev, entry->d_ino));
      if (it != tails_.end() && it->second.physical == name) {
        it->second.seen_poll = polls_;
        continue;
      }
    } else if (entry->d_type != DT_LNK && entry->d_type != DT_UNKNOWN) {
      continue;  // directories, fifos, sockets, devices
    }
    // A new name, a symlink or an untyped entry: `fstatat` follows
    // symlinks, as the batch reader's `is_regular_file` does.
    struct ::stat st{};
    if (::fstatat(dir_fd, name, &st, 0) != 0 || !S_ISREG(st.st_mode)) {
      continue;  // vanished, dangling or not a regular file
    }
    const auto [it, inserted] = tails_.try_emplace(inode_key(st));
    Tail& tail = it->second;
    tail.seen_poll = polls_;
    const auto rotation = split_rotation_suffix(name);
    if (inserted) {
      tail.key = it->first;
      tail.physical = name;
      tail.logical = rotation ? std::string(rotation->base) : tail.physical;
      tail.is_base = !rotation;
      ++stats.new_streams;
      ++streams_seen_;
    } else if (tail.physical != name) {
      // The inode moved to a new name: rename-based rotation handoff.
      // The logical stream identity is unchanged; remaining bytes are
      // read from the rotated name, from the same offset.
      tail.physical = name;
      tail.is_base = !rotation;
      tail.parked = false;
      ++stats.rotations;
      ++rotations_;
    }
  }

  // Drop tails whose inode left the directory (rotation pruned the
  // oldest segment).  Every byte it held was already fed.  A tail the
  // walk missed (renamed mid-walk) is re-checked by name so a transient
  // miss does not flush-and-recreate it with a reset offset.
  for (auto it = tails_.begin(); it != tails_.end();) {
    Tail& tail = it->second;
    struct ::stat st{};
    if (tail.seen_poll == polls_ ||
        (::fstatat(dir_fd, tail.physical.c_str(), &st, 0) == 0 &&
         inode_key(st) == tail.key)) {
      ++it;
      continue;
    }
    flush_partial(tail);
    it = tails_.erase(it);
  }
}

void FollowService::check_tail(int dir_fd, Tail& tail, PollStats& stats) {
  struct ::stat st{};
  if (::fstatat(dir_fd, tail.physical.c_str(), &st, 0) != 0 ||
      inode_key(st) != tail.key) {
    ++stats.renamed_mid_poll;  // the next walk resolves it
    return;
  }
  tail.size = static_cast<std::uintmax_t>(st.st_size);
  if (tail.size != tail.offset || (!tail.is_base && tail.lines.pending())) {
    grown_.push_back(&tail);
  }
}

void FollowService::drain_grown(int dir_fd, PollStats& stats) {
  if (grown_.empty()) return;
  // Drain in the batch reassembly order — within a family the older
  // (suffixed) segments flush before the live base, so a handoff poll
  // feeds the rotated remainder ahead of the fresh segment's bytes.
  std::vector<std::string_view> names;
  names.reserve(grown_.size());
  for (const Tail* tail : grown_) names.push_back(tail->physical);
  for (const RotationFamily& family : rotation_families(names)) {
    for (const std::size_t member : family.members) {
      drain_tail(dir_fd, *grown_[member], stats);
    }
  }
  grown_.clear();
}

void FollowService::drain_tail(int dir_fd, Tail& tail, PollStats& stats) {
  if (tail.size != tail.offset) {
    const bool refused = seam_.fail_open && seam_.fail_open(tail.physical);
    const int fd =
        refused ? -1
                : ::openat(dir_fd, tail.physical.c_str(),
                           O_RDONLY | O_CLOEXEC | O_NONBLOCK);
    if (fd < 0) {
      if (!refused && errno == ENOENT) {
        // Renamed away since the check (mid-rotation race): the inode
        // resurfaces under its rotated name next poll and is read from
        // the same offset there — one handoff, no diagnostic.
        ++stats.renamed_mid_poll;
        return;
      }
      // Genuinely unreadable.  One diagnostic per stream, the batch
      // miner's record for a file it cannot read, never repeated.
      unreadable_.emplace(tail.physical,
                          logging::unreadable_file(tail.physical,
                                                   dir_ / tail.physical));
      return;
    }
    // The name may have been renamed and recreated since the check: read
    // only through an fd that holds the tail's own inode.
    struct ::stat st{};
    if (::fstat(fd, &st) != 0 || inode_key(st) != tail.key) {
      ::close(fd);
      ++stats.renamed_mid_poll;
      return;
    }
    tail.size = static_cast<std::uintmax_t>(st.st_size);
    if (tail.size < tail.offset) {
      // Truncated in place under us (copytruncate-style rotation): the
      // bytes we already fed are gone; restart this segment from zero.
      tail.offset = 0;
      tail.lines.clear();
    }
    while (tail.offset < tail.size) {
      const std::size_t want = static_cast<std::size_t>(
          std::min<std::uintmax_t>(tail.size - tail.offset,
                                   logging::kReadBlock));
      if (buffer_.size() < want) buffer_.resize(want);
      const ::ssize_t got = ::pread(fd, buffer_.data(), want,
                                    static_cast<::off_t>(tail.offset));
      if (got < 0 && errno == EINTR) continue;
      if (got <= 0) break;  // shrank under the read; the next check sees it
      const auto n = static_cast<std::size_t>(got);
      tail.offset += n;
      stats.bytes_read += n;
      // Feed every complete line; the remainder waits for its newline.
      tail.lines.split(std::string_view(buffer_.data(), n),
                       [&](std::string_view line) {
                         analyzer_.feed(tail.logical, line);
                         ++stats.lines_fed;
                       });
    }
    ::close(fd);
  }
  if (!tail.is_base) {
    // A rotated segment is frozen; its unterminated final line is a
    // whole line to the batch reader, so feed it now — before any line
    // of the newer segment that logically follows it.
    if (tail.lines.pending()) ++stats.lines_fed;
    flush_partial(tail);
  }
}

void FollowService::sweep_parked(int dir_fd, PollStats& stats) {
  for (auto& [key, tail] : tails_) {
    if (tail.parked) check_tail(dir_fd, tail, stats);
  }
  drain_grown(dir_fd, stats);
}

PollStats FollowService::poll_once() {
  const auto span = obs::Tracer::global().span("follow.poll");
  const FollowCounters& counters = FollowCounters::get();
  PollStats stats;
  ++polls_;
  analyzer_.advance_tick();

  const DirHandle dir = open_dir(dir_);
  const int dir_fd = dir ? ::dirfd(dir.get()) : -1;
  if (dir) {
    {
      const auto scan_span = obs::Tracer::global().span("follow.scan");
      scan(dir.get(), stats);
    }
    const auto drain_span = obs::Tracer::global().span("follow.drain");
    for (auto& [key, tail] : tails_) {
      if (tail.parked) continue;
      ++stats.tails_checked;
      check_tail(dir_fd, tail, stats);
    }
    if (seam_.after_scan) seam_.after_scan();
    drain_grown(dir_fd, stats);
  }
  {
    const auto retire_span = obs::Tracer::global().span("follow.retire");
    if (options_.retire) {
      stats.apps_retired =
          analyzer_.retire_terminal(options_.retire_quiet_polls);
    }
    // Park what can no longer matter: a fully read driver or executor
    // log of a retired application (the analyzer would drop its late
    // events anyway).  Daemon logs and rotated segments never park.
    for (auto& [key, tail] : tails_) {
      if (!tail.parked && tail.is_base && tail.offset == tail.size &&
          analyzer_.stream_retired(tail.logical)) {
        tail.parked = true;
      }
    }
  }
  const auto changed = [&stats] {
    return stats.bytes_read > 0 || stats.new_streams > 0 ||
           stats.rotations > 0 || stats.renamed_mid_poll > 0;
  };
  if (!changed() && dir) {
    // No poll reports quiescence before every parked tail was re-checked,
    // so a drained snapshot covers the lines they gained since.
    const auto drain_span = obs::Tracer::global().span("follow.drain");
    sweep_parked(dir_fd, stats);
  }
  quiescent_ = !changed();
  bytes_read_ += stats.bytes_read;

  counters.polls.add(1);
  counters.bytes.add(stats.bytes_read);
  counters.streams.add(stats.new_streams);
  counters.rotations.add(stats.rotations);
  counters.apps_retired.add(stats.apps_retired);
  counters.tails_checked.set(static_cast<std::int64_t>(stats.tails_checked));
  return stats;
}

void FollowService::finish() {
  if (const DirHandle dir = open_dir(dir_)) {
    PollStats stats;
    sweep_parked(::dirfd(dir.get()), stats);
    bytes_read_ += stats.bytes_read;
    FollowCounters::get().bytes.add(stats.bytes_read);
  }
  // The live segments' unterminated last lines: the batch reader counts
  // them as lines (no trailing newline), so the drained stream must too.
  for (auto& [key, tail] : tails_) flush_partial(tail);
}

AnalysisResult FollowService::snapshot() const {
  AnalysisResult result = analyzer_.snapshot(pool_.get());

  // Synthesize the diagnostics the batch directory reader would emit on
  // the directory as of the last poll: its rotation records come from
  // the same `rotation_families` the batch reader reassembles with, over
  // the families that have a rotated member.
  const auto base_of = [](const std::string& name) -> std::string_view {
    const auto rotation = split_rotation_suffix(name);
    return rotation ? rotation->base : std::string_view(name);
  };
  std::vector<std::string_view> rotated;
  for (const auto& [key, tail] : tails_) {
    if (!tail.is_base && !unreadable_.contains(tail.physical)) {
      rotated.push_back(base_of(tail.physical));
    }
  }
  if (!rotated.empty()) {
    std::sort(rotated.begin(), rotated.end());
    std::vector<std::string_view> names;
    for (const auto& [key, tail] : tails_) {
      if (std::binary_search(rotated.begin(), rotated.end(),
                             base_of(tail.physical)) &&
          !unreadable_.contains(tail.physical)) {
        names.push_back(tail.physical);
      }
    }
    for (const RotationFamily& family : rotation_families(names)) {
      if (auto gap = family.gap(names)) {
        result.diagnostics.push_back(std::move(*gap));
      }
    }
  }
  for (const auto& [name, diagnostic] : unreadable_) {
    result.diagnostics.push_back(diagnostic);
  }
  result.diag_counts = logging::count_diagnostics(result.diagnostics);
  logging::sort_diagnostics(result.diagnostics);
  return result;
}

std::string FollowService::watch_record() const {
  json::Writer w;
  w.begin_object();
  w.field("poll", static_cast<std::int64_t>(polls_));
  w.field("quiescent", quiescent_);
  w.field("bytes_read", static_cast<std::int64_t>(bytes_read_));
  w.field("streams", static_cast<std::int64_t>(streams_seen_));
  w.field("rotations", static_cast<std::int64_t>(rotations_));
  w.field("apps_resident",
          static_cast<std::int64_t>(analyzer_.apps_resident()));
  w.field("apps_retired", static_cast<std::int64_t>(analyzer_.apps_retired()));
  w.key("analysis").raw(analysis_json(snapshot()));
  w.key("metrics").raw(obs::MetricsRegistry::global().snapshot().to_json());
  w.end_object();
  return w.take();
}

void WatchCheckResult::fail(std::string message) {
  ok = false;
  errors.push_back(std::move(message));
}

WatchCheckResult check_watch_json(std::string_view line) {
  WatchCheckResult result;
  obs::JsonValue root;
  std::string error;
  if (!obs::parse_json(line, root, error)) {
    result.fail("parse error: " + error);
    return result;
  }
  const obs::JsonObject* top = root.object();
  if (top == nullptr) {
    result.fail("top level is not an object");
    return result;
  }
  const auto require_number = [&](const char* key) {
    const obs::JsonValue* value = obs::json_find(*top, key);
    if (value == nullptr || value->number() == nullptr) {
      result.fail(std::string("missing numeric \"") + key + "\"");
    }
  };
  require_number("poll");
  require_number("bytes_read");
  require_number("streams");
  require_number("rotations");
  require_number("apps_resident");
  require_number("apps_retired");
  const obs::JsonValue* quiescent = obs::json_find(*top, "quiescent");
  if (quiescent == nullptr || quiescent->boolean() == nullptr) {
    result.fail("missing boolean \"quiescent\"");
  }
  const obs::JsonValue* analysis = obs::json_find(*top, "analysis");
  const obs::JsonObject* analysis_object =
      analysis != nullptr ? analysis->object() : nullptr;
  if (analysis_object == nullptr) {
    result.fail("missing \"analysis\" object");
  } else {
    const obs::JsonValue* summary = obs::json_find(*analysis_object, "summary");
    if (summary == nullptr || summary->object() == nullptr) {
      result.fail("\"analysis\" without \"summary\" object");
    }
  }
  const obs::JsonValue* metrics = obs::json_find(*top, "metrics");
  const obs::JsonObject* metrics_object =
      metrics != nullptr ? metrics->object() : nullptr;
  if (metrics_object == nullptr) {
    result.fail("missing \"metrics\" object");
  } else {
    const obs::JsonValue* metric_counters =
        obs::json_find(*metrics_object, "counters");
    if (metric_counters == nullptr || metric_counters->object() == nullptr) {
      result.fail("\"metrics\" without \"counters\" object");
    }
  }
  return result;
}

}  // namespace sdc::checker
