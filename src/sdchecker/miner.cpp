#include "sdchecker/miner.hpp"

#include <algorithm>

#include "common/simd.hpp"
#include "common/thread_pool.hpp"
#include "logging/timestamp.hpp"
#include "obs/metric_catalog.hpp"
#include "obs/metrics.hpp"
#include "obs/tracer.hpp"
#include "sdchecker/stream_cursor.hpp"

namespace sdc::checker {

std::optional<RotationSuffix> split_rotation_suffix(std::string_view name) {
  const std::size_t dot = name.rfind('.');
  if (dot == std::string_view::npos || dot == 0 || dot + 1 >= name.size()) {
    return std::nullopt;
  }
  const std::string_view digits = name.substr(dot + 1);
  unsigned long index = 0;
  for (const char c : digits) {
    if (c < '0' || c > '9') return std::nullopt;
    index = index * 10 + static_cast<unsigned long>(c - '0');
  }
  return RotationSuffix{name.substr(0, dot), index};
}

std::vector<RotationFamily> rotation_families(
    std::span<const std::string_view> names) {
  struct Key {
    std::string_view base;
    bool live;
    unsigned long index;
    std::size_t member;
  };
  std::vector<Key> keys;
  keys.reserve(names.size());
  for (std::size_t i = 0; i < names.size(); ++i) {
    const auto rotation = split_rotation_suffix(names[i]);
    keys.push_back(rotation ? Key{rotation->base, false, rotation->index, i}
                            : Key{names[i], true, 0, i});
  }
  std::sort(keys.begin(), keys.end(), [names](const Key& a, const Key& b) {
    if (a.base != b.base) return a.base < b.base;
    if (a.live != b.live) return b.live;
    if (a.index != b.index) return a.index > b.index;
    return names[a.member] < names[b.member];
  });
  std::vector<RotationFamily> out;
  for (std::size_t k = 0; k < keys.size();) {
    RotationFamily family;
    family.base = std::string(keys[k].base);
    const std::size_t first = k;
    for (; k < keys.size() && keys[k].base == keys[first].base; ++k) {
      family.members.push_back(keys[k].member);
    }
    if (family.members.size() > 1 || !keys[first].live) {
      std::string segment_list;
      for (const std::size_t member : family.members) {
        if (!segment_list.empty()) segment_list += ", ";
        segment_list += names[member];
      }
      family.gap = logging::Diagnostic{
          logging::DiagnosticKind::kRotationGap, family.base, 0,
          family.members.size(),
          "reassembled " + std::to_string(family.members.size()) +
              " rotated segments: " + segment_list};
    }
    out.push_back(std::move(family));
  }
  return out;
}

namespace {

using logging::Diagnostic;
using logging::DiagnosticKind;

/// What one chunk of a stream learned on its own: its events (sorted)
/// and the cursor over its lines, which the stitch pass joins in chunk
/// order.
struct ChunkOut {
  EventBatch events;
  /// Parsed lines whose message was too short for any extractor rule —
  /// dispatch skipped entirely (aggregated into mine.scan.prefilter_skipped).
  std::size_t prefilter_skipped = 0;
  StreamCursor cursor;
};

/// Mines lines [base_line, base_line + lines.size()) of one stream.
/// Line numbers are 1-based, so the produced events carry
/// `base_line + i + 1`.  Events land in a columnar batch carrying the
/// interned `stream_id`.
ChunkOut mine_chunk(std::uint32_t stream_id,
                    const std::shared_ptr<const StringInterner>& pool,
                    std::span<const std::string_view> lines,
                    std::size_t base_line) {
  ChunkOut out{EventBatch(pool), 0, StreamCursor(base_line)};
  const std::size_t shortest_rule_len = min_rule_message_len();
  for (const std::string_view line : lines) {
    const auto parsed = out.cursor.feed(line);
    if (!parsed) continue;
    if (parsed->message.size() < shortest_rule_len) ++out.prefilter_skipped;
    extract_event_into(*parsed, stream_id, out.cursor.line_no(), out.events);
  }
  // Chunks emit sorted runs; within one stream the order reduces to
  // (ts, line, kind).  Columnar index sort — the keys are contiguous
  // arrays.
  out.events.sort();
  return out;
}

/// Joins the chunk cursors in chunk order (file order), renders the
/// stream's diagnostics, synthesizes FIRST_LOG, merges the chunk runs
/// and binds stream-scoped events — semantically identical to a serial
/// pass over the whole stream.
MinedStream stitch_stream(const std::string& name, std::uint32_t stream_id,
                          const std::shared_ptr<const StringInterner>& pool,
                          std::vector<ChunkOut> chunks,
                          std::vector<Diagnostic> pre_diagnostics = {}) {
  StreamCursor cursor;
  std::vector<EventBatch> runs;
  runs.reserve(chunks.size() + 1);
  for (ChunkOut& chunk : chunks) {
    cursor.join(chunk.cursor);
    runs.push_back(std::move(chunk.events));
  }
  MinedStream out;
  out.name = name;
  out.kind = cursor.kind();
  out.lines_total = cursor.line_no();
  out.lines_unparsed = cursor.lines_unparsed();
  out.bound_app = cursor.bound_app();
  out.bound_container = cursor.first_container();
  out.diagnostics = std::move(pre_diagnostics);
  cursor.render(name, out.diagnostics);
  out.diag_counts = logging::count_diagnostics(out.diagnostics);

  // Synthesize FIRST_LOG (messages 9/13) from the first parseable line
  // of instance logs — appended as its own single-event run and placed
  // by the merge (it sorts ahead of any same-line real event via the
  // kind tiebreak), not front-inserted.
  const std::optional<EventKind> first_log = cursor.first_log_kind();
  const std::optional<std::int64_t> first_ts = cursor.first_parsed_ts();
  if (first_log && first_ts) {
    EventBatch first_run(pool);
    first_run.push(*first_log, *first_ts, stream_id, 1, std::nullopt,
                   std::nullopt);
    runs.push_back(std::move(first_run));
  }
  out.events = merge_event_batches(std::move(runs));

  // Resolve stream-scoped events against the bound ids.
  const bool bind_container =
      out.bound_container && out.kind == StreamKind::kExecutor;
  for (std::size_t i = 0; i < out.events.size(); ++i) {
    if (out.bound_app && !out.events.has_app(i)) {
      out.events.set_app(i, *out.bound_app);
    }
    if (bind_container && !out.events.has_container(i)) {
      out.events.set_container(i, *out.bound_container);
    }
  }
  return out;
}

/// One logical stream to mine: either a single physical stream (lines
/// alias the view) or a rotated family reassembled in segment order
/// (lines owned here).
struct LogicalStream {
  std::string name;
  std::vector<std::string_view> owned;
  std::span<const std::string_view> lines;
  std::vector<Diagnostic> pre_diagnostics;
};

/// Groups `view`'s streams into logical streams, reassembling rotated
/// families (see `rotation_families`).
std::vector<LogicalStream> group_rotations(const logging::BundleView& view) {
  const std::vector<std::string> names = view.stream_names();
  const std::vector<std::string_view> name_views(names.begin(), names.end());
  std::vector<LogicalStream> out;
  for (RotationFamily& family : rotation_families(name_views)) {
    LogicalStream logical;
    logical.name = std::move(family.base);
    if (!family.gap) {
      logical.lines = view.stream(names[family.members.front()]).lines();
      out.push_back(std::move(logical));
      continue;
    }
    std::size_t total = 0;
    for (const std::size_t member : family.members) {
      total += view.stream(names[member]).line_count();
    }
    logical.owned.reserve(total);
    for (const std::size_t member : family.members) {
      const auto& lines = view.stream(names[member]).lines();
      logical.owned.insert(logical.owned.end(), lines.begin(), lines.end());
    }
    logical.lines = logical.owned;
    logical.pre_diagnostics.push_back(std::move(*family.gap));
    out.push_back(std::move(logical));
  }
  return out;
}

/// Cached per-kind diagnostic counters ("mine.diagnostics.<kind>").
obs::Counter& diagnostic_counter(DiagnosticKind kind) {
  static const auto& counters = *[] {
    auto* out = new std::array<obs::Counter*, logging::kDiagnosticKindCount>{};
    for (std::size_t i = 0; i < out->size(); ++i) {
      (*out)[i] = &obs::catalog_counter(
          obs::metric::kMineDiagnostics,
          logging::diagnostic_kind_name(static_cast<DiagnosticKind>(i)));
    }
    return out;
  }();
  return *counters[static_cast<std::size_t>(kind)];
}

}  // namespace

/// The plan's state is exactly what `LogMiner::mine` used to build
/// inline: the logical streams (rotations reassembled), the frozen
/// interner, the chunk work list, and one output slot per chunk.  The
/// types live in this file's anonymous namespace; Impl is defined and
/// used only here.
struct MinePlan::Impl {
  struct ChunkRef {
    std::size_t stream;
    std::size_t begin;
    std::size_t end;
  };

  std::vector<LogicalStream> logicals;
  std::shared_ptr<const StringInterner> pool;
  std::vector<ChunkRef> refs;
  /// refs index range of stream s: [first_chunk[s], first_chunk[s+1]).
  std::vector<std::size_t> first_chunk;
  std::vector<ChunkOut> outs;
  obs::Counter& lines_counter;
  obs::Counter& prefilter_counter;

  Impl()
      : lines_counter(obs::catalog_counter(obs::metric::kMineLines)),
        prefilter_counter(
            obs::catalog_counter(obs::metric::kMineScanPrefilterSkipped)) {}
};

MinePlan::MinePlan(const logging::BundleView& view,
                   const MinerOptions& options)
    : impl_(std::make_unique<Impl>()) {
  static obs::Gauge& lines_expected =
      obs::catalog_gauge(obs::metric::kMineLinesExpected);
  // Which scan backend this mine runs with (one count per plan — the
  // backend cannot change mid-mine).
  obs::catalog_counter(
      obs::metric::kMineScanBackend,
      simd::scan_backend_name(simd::active_scan_backend()))
      .add(1);

  impl_->logicals = group_rotations(view);
  {
    std::int64_t expected = 0;
    for (const LogicalStream& logical : impl_->logicals) {
      expected += static_cast<std::int64_t>(logical.lines.size());
    }
    // Cumulative like the counters: `mine.lines_expected - mine.lines` is
    // the remaining work even across repeated mines.
    lines_expected.add(expected);
  }

  // One string pool for the whole mine: every batch stores interned
  // stream ids; the pool is frozen (const) before the workers start, so
  // sharing it across mining threads is read-only.  group_rotations
  // returns streams in name order, so id order equals name order and the
  // merge comparator almost never touches the strings.
  impl_->pool = [this] {
    auto building = std::make_shared<StringInterner>();
    for (const LogicalStream& logical : impl_->logicals) {
      building->intern(logical.name);
    }
    return std::shared_ptr<const StringInterner>(std::move(building));
  }();

  // Work list: every logical stream split into chunks at line boundaries,
  // so all chunks across all streams feed one parallel loop and a
  // dominant stream cannot serialize the run.
  impl_->first_chunk.assign(impl_->logicals.size() + 1, 0);
  for (std::size_t s = 0; s < impl_->logicals.size(); ++s) {
    impl_->first_chunk[s] = impl_->refs.size();
    const std::size_t n = impl_->logicals[s].lines.size();
    std::size_t chunk_len = n;
    if (options.threads > 1 && options.shard_grain > 0) {
      const std::size_t target = 4 * options.threads;
      chunk_len = std::max(options.shard_grain, (n + target - 1) / target);
    }
    if (chunk_len == 0) chunk_len = 1;
    std::size_t begin = 0;
    do {
      const std::size_t end = std::min(n, begin + chunk_len);
      impl_->refs.push_back(Impl::ChunkRef{s, begin, end});
      begin = end;
    } while (begin < n);
  }
  impl_->first_chunk[impl_->logicals.size()] = impl_->refs.size();
  impl_->outs.resize(impl_->refs.size());
}

MinePlan::~MinePlan() = default;
MinePlan::MinePlan(MinePlan&&) noexcept = default;
MinePlan& MinePlan::operator=(MinePlan&&) noexcept = default;

std::size_t MinePlan::stream_count() const { return impl_->logicals.size(); }

std::size_t MinePlan::chunk_count() const { return impl_->refs.size(); }

std::size_t MinePlan::stream_of(std::size_t chunk) const {
  return impl_->refs[chunk].stream;
}

std::size_t MinePlan::chunks_of(std::size_t stream) const {
  return impl_->first_chunk[stream + 1] - impl_->first_chunk[stream];
}

const std::string& MinePlan::stream_name(std::size_t stream) const {
  return impl_->logicals[stream].name;
}

std::size_t MinePlan::stream_lines(std::size_t stream) const {
  return impl_->logicals[stream].lines.size();
}

const std::shared_ptr<const StringInterner>& MinePlan::interner() const {
  return impl_->pool;
}

void MinePlan::run_chunk(std::size_t chunk) {
  const auto chunk_span = obs::Tracer::global().span("mine.chunk");
  const Impl::ChunkRef& ref = impl_->refs[chunk];
  const LogicalStream& logical = impl_->logicals[ref.stream];
  impl_->outs[chunk] = mine_chunk(
      impl_->pool->find(logical.name), impl_->pool,
      logical.lines.subspan(ref.begin, ref.end - ref.begin), ref.begin);
  impl_->lines_counter.add(ref.end - ref.begin);
  impl_->prefilter_counter.add(impl_->outs[chunk].prefilter_skipped);
}

MinedStream MinePlan::stitch(std::size_t stream) {
  LogicalStream& logical = impl_->logicals[stream];
  std::vector<ChunkOut> chunks(
      std::make_move_iterator(impl_->outs.begin() +
                              static_cast<std::ptrdiff_t>(
                                  impl_->first_chunk[stream])),
      std::make_move_iterator(impl_->outs.begin() +
                              static_cast<std::ptrdiff_t>(
                                  impl_->first_chunk[stream + 1])));
  return stitch_stream(logical.name, impl_->pool->find(logical.name),
                       impl_->pool, std::move(chunks),
                       std::move(logical.pre_diagnostics));
}

MinedStream LogMiner::mine_stream(
    const std::string& name, std::span<const std::string_view> lines) const {
  auto pool = std::make_shared<StringInterner>();
  const std::uint32_t stream_id = pool->intern(name);
  const std::shared_ptr<const StringInterner> frozen = std::move(pool);
  std::vector<ChunkOut> chunks;
  chunks.push_back(mine_chunk(stream_id, frozen, lines, 0));
  return stitch_stream(name, stream_id, frozen, std::move(chunks));
}

MinedStream LogMiner::mine_stream(const std::string& name,
                                  const std::vector<std::string>& lines) const {
  const logging::LogView view = logging::LogView::from_lines(lines);
  return mine_stream(name, view.lines());
}

MineResult LogMiner::mine(const logging::BundleView& view) const {
  const auto total_span = obs::Tracer::global().span("mine.total");
  static obs::Counter& events_counter =
      obs::catalog_counter(obs::metric::kMineEvents);
  static obs::Counter& streams_counter =
      obs::catalog_counter(obs::metric::kMineStreams);

  MinePlan plan(view, options_);
  if (options_.threads > 1 && plan.chunk_count() > 1) {
    ThreadPool pool(options_.threads);
    parallel_for(pool, plan.chunk_count(),
                 [&plan](std::size_t c) { plan.run_chunk(c); });
  } else {
    for (std::size_t c = 0; c < plan.chunk_count(); ++c) plan.run_chunk(c);
  }

  MineResult result;
  result.streams.reserve(plan.stream_count());
  std::vector<EventBatch> runs;
  runs.reserve(plan.stream_count());
  {
    const auto stitch_span = obs::Tracer::global().span("mine.stitch");
    for (std::size_t s = 0; s < plan.stream_count(); ++s) {
      MinedStream stream = plan.stitch(s);
      result.lines_total += stream.lines_total;
      result.lines_unparsed += stream.lines_unparsed;
      result.diagnostics.insert(result.diagnostics.end(),
                                stream.diagnostics.begin(),
                                stream.diagnostics.end());
      result.diag_counts += stream.diag_counts;
      // Per-stream runs are already sorted; move them out (no per-event
      // copies) and k-way merge instead of re-sorting globally.
      runs.push_back(std::move(stream.events));
      result.streams.push_back(std::move(stream));
    }
  }
  {
    const auto merge_span = obs::Tracer::global().span("mine.merge");
    result.events = merge_event_batches(std::move(runs));
  }
  streams_counter.add(result.streams.size());
  events_counter.add(result.events.size());
  for (const Diagnostic& diagnostic : result.diagnostics) {
    diagnostic_counter(diagnostic.kind).add(diagnostic.count);
  }
  return result;
}

MineResult LogMiner::mine(const logging::LogBundle& bundle) const {
  return mine(logging::BundleView::from_bundle(bundle));
}

MineResult LogMiner::mine_directory(const std::filesystem::path& dir) const {
  std::vector<Diagnostic> io_diagnostics;
  const logging::BundleView view =
      logging::BundleView::read_from_directory(dir, &io_diagnostics);
  MineResult result = mine(view);
  if (!io_diagnostics.empty()) {
    for (const Diagnostic& diagnostic : io_diagnostics) {
      result.diag_counts.add(diagnostic);
    }
    result.diagnostics.insert(result.diagnostics.begin(),
                              std::make_move_iterator(io_diagnostics.begin()),
                              std::make_move_iterator(io_diagnostics.end()));
  }
  return result;
}

}  // namespace sdc::checker
