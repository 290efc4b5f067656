#include "sdchecker/follow.hpp"

#include <sys/stat.h>

#include <fstream>
#include <set>
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

using logging::Diagnostic;
using logging::DiagnosticKind;

struct FollowCounters {
  obs::Counter& polls;
  obs::Counter& bytes;
  obs::Counter& streams;
  obs::Counter& rotations;
  obs::Counter& apps_retired;
  static const FollowCounters& get() {
    static const FollowCounters counters{
        obs::catalog_counter(obs::metric::kFollowPolls),
        obs::catalog_counter(obs::metric::kFollowBytes),
        obs::catalog_counter(obs::metric::kFollowStreams),
        obs::catalog_counter(obs::metric::kFollowRotations),
        obs::catalog_counter(obs::metric::kFollowAppsRetired)};
    return counters;
  }
};

/// (dev, inode) folded into one map key; collisions would need two
/// filesystems mounted inside one log directory.
std::uint64_t inode_key(const struct ::stat& st) {
  return (static_cast<std::uint64_t>(st.st_dev) << 32) ^
         static_cast<std::uint64_t>(st.st_ino);
}

}  // namespace

FollowService::FollowService(std::filesystem::path dir, FollowOptions options)
    : dir_(std::move(dir)), options_(options), analyzer_(options.miner) {}

void FollowService::flush_partial(Tail& tail) {
  if (tail.partial.empty()) return;
  analyzer_.feed(tail.logical, tail.partial);
  tail.partial.clear();
}

bool FollowService::drain_tail(Tail& tail, PollStats& stats) {
  const std::filesystem::path path = dir_ / tail.physical;
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    if (!std::filesystem::exists(path)) {
      // Renamed away between scan and open (mid-rotation race): the
      // inode resurfaces under its rotated name next poll and is read
      // from the same offset there — one handoff, no diagnostic.
      return false;
    }
    // Genuinely unreadable.  One diagnostic per stream, worded exactly
    // as the batch reader's LogView::from_file failure, never repeated.
    unreadable_.emplace(
        tail.physical,
        Diagnostic{DiagnosticKind::kUnreadableFile, tail.physical, 0, 1,
                   "LogView: cannot read " + path.string()});
    return true;
  }
  in.seekg(0, std::ios::end);
  const auto end = in.tellg();
  if (end < 0) return true;
  auto size = static_cast<std::uintmax_t>(end);
  if (size < tail.offset) {
    // Truncated in place under us (copytruncate-style rotation): the
    // bytes we already fed are gone; restart this segment from zero.
    tail.offset = 0;
    tail.partial.clear();
  }
  if (size > tail.offset) {
    const std::size_t added = static_cast<std::size_t>(size - tail.offset);
    std::string chunk(added, '\0');
    in.seekg(static_cast<std::streamoff>(tail.offset));
    in.read(chunk.data(), static_cast<std::streamsize>(added));
    const auto got = static_cast<std::size_t>(in.gcount());
    chunk.resize(got);
    tail.offset += got;
    stats.bytes_read += got;

    // Feed every complete line; the remainder waits for its newline.
    tail.partial += chunk;
    std::size_t start = 0;
    while (true) {
      const std::size_t nl = tail.partial.find('\n', start);
      if (nl == std::string::npos) break;
      analyzer_.feed(tail.logical, std::string_view(tail.partial)
                                       .substr(start, nl - start));
      ++stats.lines_fed;
      start = nl + 1;
    }
    tail.partial.erase(0, start);
  }
  if (!tail.is_base) {
    // A rotated segment is frozen; its unterminated final line is a
    // whole line to the batch reader, so feed it now — before any line
    // of the newer segment that logically follows it.
    if (!tail.partial.empty()) ++stats.lines_fed;
    flush_partial(tail);
  }
  return true;
}

PollStats FollowService::poll_once() {
  const auto span = obs::Tracer::global().span("follow.poll");
  const FollowCounters& counters = FollowCounters::get();
  PollStats stats;
  ++polls_;
  analyzer_.advance_tick();

  // Pass 1: rescan the directory and reconcile names against inodes.
  std::set<std::uint64_t> seen;
  std::error_code ec;
  for (const auto& entry :
       std::filesystem::directory_iterator(dir_, ec)) {
    if (!entry.is_regular_file(ec)) continue;
    struct ::stat st{};
    if (::stat(entry.path().c_str(), &st) != 0) continue;  // vanished
    const std::uint64_t key = inode_key(st);
    seen.insert(key);
    const std::string name = entry.path().filename().string();
    const auto it = tails_.find(key);
    if (it == tails_.end()) {
      Tail tail;
      tail.physical = name;
      const auto rotation = split_rotation_suffix(name);
      tail.logical = rotation ? std::string(rotation->base) : name;
      tail.is_base = !rotation;
      tails_.emplace(key, std::move(tail));
      ++stats.new_streams;
      ++streams_seen_;
      continue;
    }
    if (it->second.physical != name) {
      // The inode moved to a new name: rename-based rotation handoff.
      // The logical stream identity is unchanged; remaining bytes are
      // read from the rotated name, from the same offset.
      it->second.physical = name;
      it->second.is_base = !split_rotation_suffix(name).has_value();
      ++stats.rotations;
      ++rotations_;
    }
  }

  // Drop tails whose inode left the directory (rotation pruned the
  // oldest segment).  Every byte it held was already fed.  A tail the
  // scan missed (renamed mid-iteration) is re-checked by name so a
  // transient miss does not flush-and-recreate it with a reset offset.
  for (auto it = tails_.begin(); it != tails_.end();) {
    if (seen.contains(it->first)) {
      ++it;
      continue;
    }
    struct ::stat st{};
    if (::stat((dir_ / it->second.physical).c_str(), &st) != 0 ||
        inode_key(st) != it->first) {
      flush_partial(it->second);
      it = tails_.erase(it);
    } else {
      ++it;
    }
  }

  // Pass 2: drain in the batch reassembly order — within a family the
  // older (suffixed) segments flush before the live base, so a handoff
  // poll feeds the rotated remainder ahead of the fresh segment's bytes.
  std::vector<Tail*> tails;
  std::vector<std::string_view> names;
  tails.reserve(tails_.size());
  names.reserve(tails_.size());
  for (auto& [key, tail] : tails_) {
    tails.push_back(&tail);
    names.push_back(tail.physical);
  }
  for (const RotationFamily& family : rotation_families(names)) {
    for (const std::size_t member : family.members) {
      drain_tail(*tails[member], stats);
    }
  }

  if (options_.retire) {
    stats.apps_retired = analyzer_.retire_terminal(options_.retire_quiet_polls);
  }
  quiescent_ = stats.bytes_read == 0 && stats.new_streams == 0 &&
               stats.rotations == 0;
  bytes_read_ += stats.bytes_read;

  counters.polls.add(1);
  counters.bytes.add(stats.bytes_read);
  counters.streams.add(stats.new_streams);
  counters.rotations.add(stats.rotations);
  counters.apps_retired.add(stats.apps_retired);
  return stats;
}

void FollowService::finish() {
  // The live segments' unterminated last lines: the batch reader counts
  // them as lines (no trailing newline), so the drained stream must too.
  for (auto& [key, tail] : tails_) flush_partial(tail);
  finished_ = true;
}

AnalysisResult FollowService::snapshot() const {
  AnalysisResult result = analyzer_.snapshot(options_.analyze_shards);

  // Synthesize the diagnostics the batch directory reader would emit on
  // the directory as it stands now: its rotation records come from the
  // same `rotation_families` the batch reader reassembles with.
  std::vector<std::string> names;
  std::error_code ec;
  for (const auto& entry :
       std::filesystem::directory_iterator(dir_, ec)) {
    if (!entry.is_regular_file(ec)) continue;
    std::string name = entry.path().filename().string();
    if (unreadable_.contains(name)) continue;  // excluded from the view
    names.push_back(std::move(name));
  }
  const std::vector<std::string_view> name_views(names.begin(), names.end());
  for (RotationFamily& family : rotation_families(name_views)) {
    if (family.gap) result.diagnostics.push_back(std::move(*family.gap));
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
