#include "sdchecker/corpus_mutator.hpp"

#include <stdlib.h>

#include <algorithm>
#include <cstddef>
#include <exception>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <stdexcept>
#include <utility>

#include "common/rng.hpp"
#include "logging/timestamp.hpp"
#include "obs/json_parse.hpp"
#include "sdchecker/export.hpp"
#include "sdchecker/extractor.hpp"
#include "sdchecker/follow.hpp"
#include "sdchecker/parsed_line.hpp"
#include "sdchecker/sdchecker.hpp"
#include "sdchecker/trace_export.hpp"

namespace sdc::checker {
namespace {

using logging::DiagnosticKind;
using logging::LogBundle;

void append_all(LogBundle& out, const std::string& stream,
                const std::vector<std::string>& lines) {
  for (const std::string& line : lines) out.append(stream, line);
}

/// Copies every stream except the (up to two) named ones.
LogBundle copy_except(const LogBundle& input, const std::string& skip,
                      const std::string& skip2 = {}) {
  LogBundle out;
  for (const std::string& name : input.stream_names()) {
    if (name == skip) continue;
    if (!skip2.empty() && name == skip2) continue;
    append_all(out, name, input.lines(name));
  }
  return out;
}

/// Seeded choice of the stream a destructive class damages, among
/// streams long enough to damage meaningfully.
std::optional<std::string> pick_target(const LogBundle& input, Rng& rng) {
  std::vector<std::string> candidates;
  for (const std::string& name : input.stream_names()) {
    if (input.lines(name).size() >= 8) candidates.push_back(name);
  }
  if (candidates.empty()) {
    for (const std::string& name : input.stream_names()) {
      if (!input.lines(name).empty()) candidates.push_back(name);
    }
  }
  if (candidates.empty()) return std::nullopt;
  return candidates[static_cast<std::size_t>(
      rng.uniform_int(0, static_cast<std::int64_t>(candidates.size()) - 1))];
}

std::optional<std::int64_t> line_ts(const std::string& line) {
  if (line.size() < logging::kTimestampWidth) return std::nullopt;
  return logging::parse_epoch_ms(
      std::string_view(line).substr(0, logging::kTimestampWidth));
}

struct TsSpan {
  std::string name;
  std::size_t first_idx = 0;  // first line with a parseable timestamp
  std::size_t last_idx = 0;   // last such line (> first_idx)
  std::int64_t first_ts = 0;
  std::int64_t last_ts = 0;
};

std::optional<TsSpan> stream_span(const LogBundle& input,
                                  const std::string& name) {
  const std::vector<std::string>& lines = input.lines(name);
  TsSpan span;
  span.name = name;
  bool found_first = false;
  for (std::size_t i = 0; i < lines.size(); ++i) {
    if (const auto ts = line_ts(lines[i])) {
      if (!found_first) {
        found_first = true;
        span.first_idx = i;
        span.first_ts = *ts;
      }
      span.last_idx = i;
      span.last_ts = *ts;
    }
  }
  if (!found_first || span.last_idx == span.first_idx) return std::nullopt;
  return span;
}

/// The stream whose parseable timestamps cover the widest interval —
/// the pick for classes that need room to make time jump backwards.
std::optional<TsSpan> widest_span_stream(const LogBundle& input) {
  std::optional<TsSpan> best;
  for (const std::string& name : input.stream_names()) {
    const auto span = stream_span(input, name);
    if (!span) continue;
    if (!best ||
        span->last_ts - span->first_ts > best->last_ts - best->first_ts) {
      best = span;
    }
  }
  return best;
}

/// Rewrites the leading timestamp of `line` by `delta_ms`; returns the
/// line unchanged when it has no parseable timestamp.
std::string shift_line_ts(const std::string& line, std::int64_t delta_ms) {
  const auto ts = line_ts(line);
  if (!ts) return line;
  return logging::format_epoch_ms(*ts + delta_ms) +
         line.substr(logging::kTimestampWidth);
}

// --- mutation classes ------------------------------------------------------

LogBundle mutate_truncate_head(const LogBundle& input, Rng& rng) {
  const auto target = pick_target(input, rng);
  if (!target) return input;
  const std::vector<std::string>& lines = input.lines(*target);
  if (lines.size() < 2) return input;
  LogBundle out = copy_except(input, *target);
  std::size_t drop = std::max<std::size_t>(
      1, static_cast<std::size_t>(rng.uniform_int(
             1, static_cast<std::int64_t>(lines.size()) / 4 + 1)));
  drop = std::min(drop, lines.size() - 1);
  std::vector<std::string> kept(lines.begin() +
                                    static_cast<std::ptrdiff_t>(drop),
                                lines.end());
  // Tear the new first line mid-line: only its tail survives, timestamp
  // gone — what a reader sees after the head was rotated away mid-write.
  std::string& first = kept.front();
  if (first.size() > 4) first.erase(0, first.size() * 2 / 3);
  append_all(out, *target, kept);
  return out;
}

LogBundle mutate_truncate_tail(const LogBundle& input, Rng& rng) {
  const auto target = pick_target(input, rng);
  if (!target) return input;
  std::vector<std::string> lines = input.lines(*target);
  if (lines.size() < 2) return input;
  LogBundle out = copy_except(input, *target);
  std::size_t drop = std::max<std::size_t>(
      1, static_cast<std::size_t>(rng.uniform_int(
             1, static_cast<std::int64_t>(lines.size()) / 4 + 1)));
  drop = std::min(drop, lines.size() - 1);
  lines.resize(lines.size() - drop);
  // Cut the surviving last line mid-write: the timestamp reached disk,
  // the rest of the write did not.
  std::string& last = lines.back();
  if (last.size() > logging::kTimestampWidth + 2) {
    last.resize(logging::kTimestampWidth +
                static_cast<std::size_t>(rng.uniform_int(1, 4)));
  } else if (last.size() > 1) {
    last.resize(last.size() / 2);
  }
  append_all(out, *target, lines);
  return out;
}

LogBundle mutate_rotate_split(const LogBundle& input, Rng& rng) {
  const auto target = pick_target(input, rng);
  if (!target) return input;
  const std::vector<std::string>& lines = input.lines(*target);
  if (lines.size() < 2) return input;
  LogBundle out = copy_except(input, *target);
  const std::size_t segments = lines.size() >= 30 ? 3 : 2;
  // Seed-jittered cut points, kept strictly increasing.
  std::vector<std::size_t> bounds{0};
  for (std::size_t s = 1; s < segments; ++s) {
    const auto base =
        static_cast<std::int64_t>(lines.size() * s / segments);
    const auto spread = static_cast<std::int64_t>(lines.size() / 8);
    std::int64_t cut = base + rng.uniform_int(-spread, spread);
    cut = std::clamp(cut, static_cast<std::int64_t>(bounds.back()) + 1,
                     static_cast<std::int64_t>(lines.size()) -
                         static_cast<std::int64_t>(segments - s));
    bounds.push_back(static_cast<std::size_t>(cut));
  }
  bounds.push_back(lines.size());
  // logrotate order: the oldest lines live in the highest suffix, the
  // newest keep the base name.
  for (std::size_t s = 0; s < segments; ++s) {
    const std::size_t suffix = segments - 1 - s;
    const std::string name =
        suffix == 0 ? *target : *target + "." + std::to_string(suffix);
    for (std::size_t i = bounds[s]; i < bounds[s + 1]; ++i) {
      out.append(name, lines[i]);
    }
  }
  return out;
}

LogBundle mutate_duplicate_lines(const LogBundle& input, Rng& rng) {
  const auto span = widest_span_stream(input);
  if (!span) return input;
  const std::vector<std::string>& lines = input.lines(span->name);
  LogBundle out = copy_except(input, span->name);
  // Re-flushed buffer: a block reaching to the end of the stream appears
  // twice.  The seam where the copy restarts jumps backwards by (nearly)
  // the stream's whole timestamp span.
  const std::size_t begin = static_cast<std::size_t>(
      rng.uniform_int(0, static_cast<std::int64_t>(span->first_idx)));
  std::vector<std::string> mutated = lines;
  mutated.insert(mutated.end(),
                 lines.begin() + static_cast<std::ptrdiff_t>(begin),
                 lines.end());
  append_all(out, span->name, mutated);
  return out;
}

LogBundle mutate_garbage_bytes(const LogBundle& input, Rng& rng) {
  const auto target = pick_target(input, rng);
  if (!target) return input;
  const std::vector<std::string>& lines = input.lines(*target);
  LogBundle out = copy_except(input, *target);
  const std::size_t at = static_cast<std::size_t>(
      rng.uniform_int(0, static_cast<std::int64_t>(lines.size())));
  constexpr std::size_t kBurst = 6;
  std::vector<std::string> mutated(
      lines.begin(), lines.begin() + static_cast<std::ptrdiff_t>(at));
  for (std::size_t b = 0; b < kBurst; ++b) {
    const std::size_t len =
        static_cast<std::size_t>(rng.uniform_int(8, 40));
    std::string junk(len, '\0');
    for (char& c : junk) {
      const auto byte = static_cast<int>(rng.uniform_int(0, 255));
      // Keep the corpus line-structured: '\n' would split the line.
      c = byte == '\n' ? '\0' : static_cast<char>(byte);
    }
    // At least one NUL so the line classifies as binary garbage even if
    // the draw happened to be printable.
    junk[static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(len) - 1))] = '\0';
    mutated.push_back(std::move(junk));
  }
  mutated.insert(mutated.end(),
                 lines.begin() + static_cast<std::ptrdiff_t>(at),
                 lines.end());
  append_all(out, *target, mutated);
  return out;
}

/// `lines` with every line from index `from` on stamped `delta_ms` later.
std::vector<std::string> step_clock(const std::vector<std::string>& lines,
                                    std::size_t from, std::int64_t delta_ms) {
  std::vector<std::string> out;
  out.reserve(lines.size());
  for (std::size_t i = 0; i < lines.size(); ++i) {
    out.push_back(i >= from ? shift_line_ts(lines[i], delta_ms) : lines[i]);
  }
  return out;
}

/// A stream's daemon kind as the miner decides it: that of its first
/// line with a diagnostic logger class.
StreamKind stream_kind(const std::vector<std::string>& lines) {
  for (const std::string& line : lines) {
    const auto parsed = parse_line(line);
    if (!parsed) continue;
    const StreamKind kind = classify_line(*parsed);
    if (kind != StreamKind::kUnknown) return kind;
  }
  return StreamKind::kUnknown;
}

LogBundle mutate_clock_skew(const LogBundle& input, Rng& rng) {
  const auto span = widest_span_stream(input);
  if (!span) return input;
  // NTP step: the daemon's clock is corrected backwards mid-run, so
  // every later line is stamped several seconds earlier.
  const std::size_t split =
      span->first_idx + std::max<std::size_t>(
                            1, (span->last_idx - span->first_idx) / 2);
  const std::int64_t delta = -(5000 + rng.uniform_int(0, 5000));
  std::vector<TsSpan> drivers;
  for (const std::string& name : input.stream_names()) {
    if (name == span->name ||
        stream_kind(input.lines(name)) != StreamKind::kDriver) {
      continue;
    }
    if (auto driver = stream_span(input, name)) drivers.push_back(*driver);
  }
  const TsSpan* driver =
      drivers.empty()
          ? nullptr
          : &drivers[static_cast<std::size_t>(rng.uniform_int(
                0, static_cast<std::int64_t>(drivers.size()) - 1))];
  LogBundle out =
      copy_except(input, span->name, driver ? driver->name : std::string());
  append_all(out, span->name,
             step_clock(input.lines(span->name), split, delta));
  if (driver != nullptr) {
    // One driver's clock steps back right after its first line, by 5-10 s
    // more than the stream's whole span.  Its REGISTER moves back with
    // it, so `driver` goes negative, and `in-app` too: its two parts
    // (driver first log to REGISTER, executor first log to first task)
    // lie apart inside the driver's span.
    const std::int64_t driver_delta =
        (driver->first_ts - driver->last_ts) - 5000 -
        rng.uniform_int(0, 5000);
    append_all(out, driver->name,
               step_clock(input.lines(driver->name), driver->first_idx + 1,
                          driver_delta));
  }
  return out;
}

LogBundle mutate_interleave(const LogBundle& input, Rng& rng) {
  // Two daemons writing one file.  The host stream keeps its name; the
  // guest's lines are woven in block-wise with its (badly skewed) clock
  // stamping everything before the host's run even started — every
  // host->guest seam jumps backwards in time.
  const auto host = widest_span_stream(input);
  if (!host) return input;
  std::optional<TsSpan> guest;
  for (const std::string& name : input.stream_names()) {
    if (name == host->name) continue;
    const auto span = stream_span(input, name);
    if (!span) continue;
    if (!guest ||
        span->last_ts - span->first_ts > guest->last_ts - guest->first_ts) {
      guest = span;
    }
  }
  if (!guest) return input;
  const std::vector<std::string>& a = input.lines(host->name);
  const std::vector<std::string>& b = input.lines(guest->name);
  LogBundle out = copy_except(input, host->name, guest->name);
  const std::int64_t guest_delta =
      (host->first_ts - guest->last_ts) - 5000 - rng.uniform_int(0, 5000);
  const std::size_t block =
      static_cast<std::size_t>(rng.uniform_int(4, 12));
  std::vector<std::string> mutated;
  mutated.reserve(a.size() + b.size());
  std::size_t ai = 0;
  std::size_t bi = 0;
  // Lead with a host block that includes a parsed timestamp, so the
  // first guest block lands after it and trips the regression check.
  std::size_t take_a = std::max(block, host->first_idx + 1);
  while (ai < a.size() || bi < b.size()) {
    for (std::size_t n = 0; n < take_a && ai < a.size(); ++n) {
      mutated.push_back(a[ai++]);
    }
    take_a = block;
    for (std::size_t n = 0; n < block && bi < b.size(); ++n) {
      mutated.push_back(shift_line_ts(b[bi++], guest_delta));
    }
  }
  append_all(out, host->name, mutated);
  return out;
}

// --- the class table -------------------------------------------------------

using Mutation = LogBundle (*)(const LogBundle&, Rng&);

/// One damage class: its name, the diagnostic kind its mutant must
/// surface and its mutation (identity expects none and has none).
struct ClassSpec {
  MutationClass cls;
  std::string_view name;
  std::optional<DiagnosticKind> expects;
  Mutation mutate;
};

constexpr ClassSpec kClasses[] = {
    {MutationClass::kIdentity, "identity", std::nullopt, nullptr},
    {MutationClass::kTruncateHead, "truncate-head",
     DiagnosticKind::kTruncatedLine, &mutate_truncate_head},
    {MutationClass::kTruncateTail, "truncate-tail",
     DiagnosticKind::kTruncatedLine, &mutate_truncate_tail},
    {MutationClass::kRotateSplit, "rotate-split", DiagnosticKind::kRotationGap,
     &mutate_rotate_split},
    {MutationClass::kDuplicateLines, "duplicate-lines",
     DiagnosticKind::kTimestampRegression, &mutate_duplicate_lines},
    {MutationClass::kGarbageBytes, "garbage-bytes",
     DiagnosticKind::kBinaryGarbage, &mutate_garbage_bytes},
    {MutationClass::kClockSkew, "clock-skew",
     DiagnosticKind::kTimestampRegression, &mutate_clock_skew},
    {MutationClass::kInterleave, "interleave",
     DiagnosticKind::kTimestampRegression, &mutate_interleave},
};

// The rules the table keeps with the diagnostic vocabulary; a broken one
// fails the build here, naming the rule.
constexpr bool class_rows_valid() {
  if (std::size(kClasses) != kMutationClassCount) {
    throw "kClasses needs one row per MutationClass";
  }
  for (std::size_t i = 0; i < kMutationClassCount; ++i) {
    if (static_cast<std::size_t>(kClasses[i].cls) != i) {
      throw "kClasses rows must follow MutationClass order";
    }
  }
  for (std::size_t k = 0; k < logging::kDiagnosticKindCount; ++k) {
    const auto kind = static_cast<DiagnosticKind>(k);
    bool expected = false;
    for (const ClassSpec& row : kClasses) {
      expected = expected || row.expects == kind;
    }
    if (!expected && !runtime_only_reason(kind)) {
      throw "a kind no class expects needs a runtime_only_reason";
    }
    if (expected && runtime_only_reason(kind)) {
      throw "a kind a class expects must have no runtime_only_reason";
    }
  }
  return true;
}
static_assert(class_rows_valid());

const ClassSpec& class_spec(MutationClass cls) {
  return kClasses[static_cast<std::size_t>(cls)];
}

// --- the sweep -------------------------------------------------------------

/// A fresh directory under the system temp dir, removed on scope exit
/// (mkdtemp keeps concurrent fuzz runs apart).
struct TempDir {
  std::filesystem::path path;
  TempDir() {
    std::string pattern =
        (std::filesystem::temp_directory_path() / "sdc_fuzz_XXXXXX").string();
    if (::mkdtemp(pattern.data()) == nullptr) {
      throw std::runtime_error("cannot create a directory for a fuzz mutant");
    }
    path = pattern;
  }
  ~TempDir() {
    std::error_code ec;
    std::filesystem::remove_all(path, ec);
  }
  TempDir(const TempDir&) = delete;
  TempDir& operator=(const TempDir&) = delete;
};

void append_file(const std::filesystem::path& path, std::string_view bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::app);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  if (!out) throw std::runtime_error("cannot write " + path.string());
}

/// The follow leg: writes `mutant` into a fresh directory the way a live
/// cluster does while a FollowService tails it, and returns whether the
/// drained snapshot renders `document`, the batch analysis of the
/// mutant's own directory, and the live directory ends holding the
/// mutant's names and bytes.  Each file arrives in three slices cut
/// mid-line, with one poll per round of slices.  A rotated family
/// `base.N ... base.1, base` is produced by logrotate renames: each
/// segment is written as `base`, then `base.K` moves to `base.K+1` and
/// `base` to `base.1` before the next one starts.  Retirement stays off:
/// eviction parity depends on the grace period, not on the corpus.
bool follow_drains_to(const LogBundle& mutant, const std::string& document) {
  constexpr std::size_t kSlices = 3;
  struct Family {
    std::string base;
    /// Segment texts and final names, oldest first.
    std::vector<std::string> texts;
    std::vector<std::string> names;
    /// Names follow the logrotate pattern, so the segments are produced
    /// by renames; otherwise each is written under its final name.
    bool renamed = true;
  };
  const std::vector<std::string> names = mutant.stream_names();
  const std::vector<std::string_view> name_views(names.begin(), names.end());
  std::vector<Family> families;
  std::size_t rounds = 0;
  for (const RotationFamily& rotation : rotation_families(name_views)) {
    Family family;
    family.base = std::string(rotation.base);
    const std::size_t n = rotation.members.size();
    for (std::size_t i = 0; i < n; ++i) {
      const std::string& name = names[rotation.members[i]];
      std::string text;
      for (const std::string& line : mutant.lines(name)) {
        text += line;
        text += '\n';
      }
      family.texts.push_back(std::move(text));
      family.names.push_back(name);
      const std::size_t suffix = n - 1 - i;
      family.renamed = family.renamed &&
                       name == (suffix == 0 ? family.base
                                            : family.base + "." +
                                                  std::to_string(suffix));
    }
    rounds = std::max(rounds, kSlices * n);
    families.push_back(std::move(family));
  }

  const TempDir live;
  FollowOptions follow_options;
  follow_options.retire = false;
  FollowService service(live.path, follow_options);
  for (std::size_t round = 0; round < rounds; ++round) {
    const std::size_t segment = round / kSlices;
    const std::size_t slice = round % kSlices;
    for (const Family& family : families) {
      if (segment >= family.texts.size()) continue;
      if (family.renamed && slice == 0 && segment > 0) {
        for (std::size_t k = segment - 1; k >= 1; --k) {
          std::filesystem::rename(
              live.path / (family.base + "." + std::to_string(k)),
              live.path / (family.base + "." + std::to_string(k + 1)));
        }
        std::filesystem::rename(live.path / family.base,
                                live.path / (family.base + ".1"));
      }
      const std::string& text = family.texts[segment];
      const std::size_t begin = text.size() * slice / kSlices;
      const std::size_t end = text.size() * (slice + 1) / kSlices;
      append_file(live.path / (family.renamed ? family.base
                                              : family.names[segment]),
                  std::string_view(text).substr(begin, end - begin));
    }
    service.poll_once();
  }
  while (!service.quiescent()) service.poll_once();
  service.finish();
  return analysis_json(service.snapshot()) == document &&
         LogBundle::read_from_directory(live.path) == mutant;
}

}  // namespace

std::string_view mutation_class_name(MutationClass cls) {
  return class_spec(cls).name;
}

std::optional<MutationClass> mutation_class_from_name(std::string_view name) {
  for (const ClassSpec& row : kClasses) {
    if (row.name == name) return row.cls;
  }
  return std::nullopt;
}

std::vector<MutationClass> all_mutation_classes() {
  std::vector<MutationClass> out;
  out.reserve(kMutationClassCount);
  for (const ClassSpec& row : kClasses) out.push_back(row.cls);
  return out;
}

std::optional<DiagnosticKind> expected_diagnostic(MutationClass cls) {
  return class_spec(cls).expects;
}

std::vector<MutationClass> mutation_classes_for(logging::DiagnosticKind kind) {
  std::vector<MutationClass> out;
  for (const ClassSpec& row : kClasses) {
    if (row.expects == kind) out.push_back(row.cls);
  }
  return out;
}

logging::LogBundle apply_mutation(const logging::LogBundle& input,
                                  MutationClass cls, std::uint64_t seed) {
  // Fork per class so every class sees an independent stream for the
  // same seed.
  Rng root(seed);
  Rng rng = root.fork(static_cast<std::uint64_t>(cls) + 1);
  const Mutation mutate = class_spec(cls).mutate;
  return mutate != nullptr ? mutate(input, rng) : input;
}

std::vector<FuzzCaseResult> fuzz_corpus(
    const std::filesystem::path& corpus_dir, std::uint64_t seed,
    const std::vector<MutationClass>& classes,
    const std::filesystem::path& out_dir) {
  if (!out_dir.empty()) {
    for (const MutationClass cls : classes) {
      const std::filesystem::path dir = out_dir / mutation_class_name(cls);
      if (std::filesystem::exists(dir) && !std::filesystem::is_empty(dir)) {
        throw std::runtime_error("fuzz: " + dir.string() + " is not empty");
      }
    }
  }
  const LogBundle base = LogBundle::read_from_directory(corpus_dir);
  const SdChecker serial;
  const SdChecker sharded(
      {.threads = 4, .shard_grain = 64, .analyze_shards = 4});
  const std::string baseline =
      analysis_json(serial.analyze_directory(corpus_dir));
  std::vector<FuzzCaseResult> out;
  out.reserve(classes.size());
  for (const MutationClass cls : classes) {
    FuzzCaseResult result;
    result.cls = cls;
    try {
      const LogBundle mutant = apply_mutation(base, cls, seed);
      std::optional<TempDir> temp;
      const std::filesystem::path dir =
          out_dir.empty() ? temp.emplace().path
                          : out_dir / mutation_class_name(cls);
      mutant.write_to_directory(dir);
      const AnalysisResult analysis = serial.analyze_directory(dir);
      const std::string document = analysis_json(analysis);
      result.events_total = analysis.events_total;
      result.anomalies = analysis.anomalies.size();
      result.diag_counts = analysis.diag_counts;
      if (const auto kind = expected_diagnostic(cls)) {
        result.expected_kind_count = analysis.diag_counts.of(*kind);
        result.signal = result.expected_kind_count > 0;
      } else {
        result.expected_kind_count = analysis.diag_counts.total();
        result.signal = document == baseline;
      }
      obs::JsonValue parsed;
      std::string parse_error;
      result.document = obs::parse_json(document, parsed, parse_error);
      const obs::TraceCheckResult trace =
          check_scheduling_trace(scheduling_trace_json(analysis), analysis);
      result.trace = trace.ok;
      if (!result.document) {
        result.error = "document: " + parse_error;
      } else if (!trace.ok && !trace.errors.empty()) {
        result.error = "trace: " + trace.errors.front();
      }
      result.sharded =
          analysis_json(sharded.analyze_directory(dir)) == document;
      result.follow = follow_drains_to(mutant, document);
      result.ok = result.signal && result.document && result.trace &&
                  result.sharded && result.follow;
    } catch (const std::exception& e) {
      result.crashed = true;
      result.error = e.what();
    } catch (...) {
      result.crashed = true;
      result.error = "non-standard exception";
    }
    out.push_back(std::move(result));
  }
  return out;
}

std::string render_fuzz_report(const std::vector<FuzzCaseResult>& results) {
  std::string out;
  for (const FuzzCaseResult& result : results) {
    out += result.ok ? "ok   " : "FAIL ";
    std::string name(mutation_class_name(result.cls));
    name.resize(16, ' ');
    out += name;
    if (result.crashed) {
      out += " crashed: " + result.error;
    } else {
      const auto kind = expected_diagnostic(result.cls);
      out += " diag[";
      out += kind ? logging::diagnostic_kind_name(*kind) : "total";
      out += "]=" + std::to_string(result.expected_kind_count);
      out += " diagnostics=" + std::to_string(result.diag_counts.total());
      out += " events=" + std::to_string(result.events_total);
      out += " anomalies=" + std::to_string(result.anomalies);
      out += result.signal ? " signal=ok" : " signal=FAIL";
      out += result.document ? " document=ok" : " document=FAIL";
      out += result.trace ? " trace=ok" : " trace=FAIL";
      out += result.sharded ? " sharded=serial" : " sharded!=serial";
      out += result.follow ? " follow=batch" : " follow!=batch";
      if (!result.error.empty()) out += " (" + result.error + ")";
    }
    out += '\n';
  }
  return out;
}

}  // namespace sdc::checker
