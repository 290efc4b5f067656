#include "sdchecker/miner.hpp"

#include <dirent.h>
#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <stdexcept>

#include "common/thread_pool.hpp"
#include "logging/line_reader.hpp"
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

namespace {

/// The kRotationGap record of a stream reassembled from `segments`, in
/// logrotate order, or nullopt when it is one base file named `base`.
std::optional<logging::Diagnostic> rotation_gap(
    std::string_view base, std::span<const std::string_view> segments) {
  if (segments.size() == 1 && segments.front() == base) return std::nullopt;
  std::string segment_list;
  for (const std::string_view segment : segments) {
    if (!segment_list.empty()) segment_list += ", ";
    segment_list += segment;
  }
  return logging::Diagnostic{
      logging::DiagnosticKind::kRotationGap, std::string(base), 0,
      segments.size(),
      "reassembled " + std::to_string(segments.size()) +
          " rotated segments: " + segment_list};
}

}  // namespace

std::optional<logging::Diagnostic> RotationFamily::gap(
    std::span<const std::string_view> names) const {
  std::vector<std::string_view> segments;
  segments.reserve(members.size());
  for (const std::size_t member : members) segments.push_back(names[member]);
  return rotation_gap(base, segments);
}

RotationFamilies rotation_families(std::span<const std::string_view> names) {
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
    if (const int order = a.base.compare(b.base); order != 0) return order < 0;
    if (a.live != b.live) return b.live;
    if (a.index != b.index) return a.index > b.index;
    return names[a.member] < names[b.member];
  });
  RotationFamilies out;
  out.order_.reserve(keys.size());
  for (const Key& key : keys) out.order_.push_back(key.member);
  const std::span<const std::size_t> order(out.order_);
  for (std::size_t k = 0; k < keys.size();) {
    const std::size_t first = k;
    while (k < keys.size() && keys[k].base == keys[first].base) ++k;
    out.families_.push_back(
        RotationFamily{keys[first].base, order.subspan(first, k - first)});
  }
  return out;
}

namespace {

using logging::Diagnostic;

/// What one range of a stream learned on its own: its events, in line
/// order, and the cursor over its lines, which the stitch pass joins in
/// file order.
struct ChunkOut {
  EventBatch events;
  StreamCursor cursor;
  /// The range's file could not be opened, was no longer the listed
  /// inode, or failed a read.
  bool unreadable = false;

  /// Mines the stream's next line.
  void feed(std::string_view line) {
    const auto parsed = cursor.feed(line);
    if (parsed) extract_event_into(*parsed, events);
  }
};

/// One file of a stream: a listed file, or one in-memory stream.
struct Member {
  /// In the plan's name buffer (a C string, for `openat`).
  const char* name = nullptr;
  /// Planned bytes: the listed size, or the in-memory lines with one
  /// newline each.
  std::uint64_t size = 0;
  std::uint64_t dev = 0;
  std::uint64_t ino = 0;
  /// The in-memory stream's lines; null for a file.
  const std::vector<std::string>* lines = nullptr;
};

struct Stream {
  /// The base name its members share (a prefix of each one's name).
  std::string_view name;
  /// In logrotate order: a run of the plan's member vector.
  std::span<const Member> members;
};

/// Bytes [begin, end) of a file, or lines [begin, end) of an in-memory
/// stream.
struct Range {
  /// Index into the stream's members.
  std::size_t member = 0;
  std::uint64_t begin = 0;
  std::uint64_t end = 0;
};

struct CloseDir {
  void operator()(DIR* dir) const { ::closedir(dir); }
};

/// Names a `fstatat` slice of the listing covers: enough that a slice
/// outweighs its task, few enough that 4 workers share a 10k listing.
constexpr std::size_t kStatSlice = 64;

/// Closes its descriptor (if open) on scope exit.
struct FileDescriptor {
  explicit FileDescriptor(int open_fd) : fd(open_fd) {}
  ~FileDescriptor() {
    if (fd >= 0) ::close(fd);
  }
  FileDescriptor(const FileDescriptor&) = delete;
  FileDescriptor& operator=(const FileDescriptor&) = delete;
  const int fd;
};

/// This worker's read block, reused by every range it reads.
std::span<char> read_block() {
  thread_local const std::unique_ptr<char[]> block =
      std::make_unique_for_overwrite<char[]>(logging::kReadBlock);
  return {block.get(), logging::kReadBlock};
}

/// Reads the lines of bytes [begin, end) of `file`, opened by name in
/// the directory open as `dir_fd`, up to its listed size.  Returns the
/// bytes consumed, or nullopt when it cannot be opened, a read fails, or
/// the name no longer holds the listed (dev, inode) — one renamed away
/// and recreated since the listing, or found in a directory that
/// replaced the listed one, is another file.
template <typename OnLine>
std::optional<std::uint64_t> read_listed_range(
    int dir_fd, const Member& file, std::uint64_t begin, std::uint64_t end,
    OnLine&& on_line) {
  const FileDescriptor fd(
      ::openat(dir_fd, file.name, O_RDONLY | O_CLOEXEC | O_NONBLOCK));
  struct ::stat st{};
  if (fd.fd < 0 || ::fstat(fd.fd, &st) != 0 ||
      static_cast<std::uint64_t>(st.st_dev) != file.dev ||
      static_cast<std::uint64_t>(st.st_ino) != file.ino) {
    return std::nullopt;
  }
  return logging::read_line_range(fd.fd, begin, end, file.size, read_block(),
                                  std::forward<OnLine>(on_line));
}

}  // namespace

/// The plan: logical streams (rotations reassembled) of listed files or
/// in-memory streams, the ranges grouped into chunks, and one output slot
/// per range.  The types live in this file's anonymous namespace; Impl is
/// defined and used only here, and never moves (`MinePlan` holds it by
/// pointer), so views into its buffers stay valid.
struct MinePlan::Impl {
  /// The listed directory; empty for in-memory input.
  std::filesystem::path dir;
  /// Every member's name followed by a NUL, back to back.  Filled before
  /// any view into it is taken and never grown after.
  std::string names;
  /// Every stream's members, stream after stream.
  std::vector<Member> members;
  std::vector<Stream> streams;
  std::vector<Range> ranges;
  /// The stream of each range.
  std::vector<std::size_t> range_stream;
  /// Ranges of stream s: [first_range[s], first_range[s+1]).
  std::vector<std::size_t> first_range;
  /// Ranges of chunk c: [first_of_chunk[c], first_of_chunk[c+1]).
  std::vector<std::size_t> first_of_chunk;
  std::vector<ChunkOut> outs;
  obs::Counter& lines_counter;
  obs::Counter& bytes_counter;

  Impl()
      : lines_counter(obs::catalog_counter(obs::metric::kMineLines)),
        bytes_counter(obs::catalog_counter(obs::metric::kMineBytes)) {}

  /// Lists `dir` into `names` and returns its regular files (symlinks
  /// followed, dotfiles included) in `readdir` order.
  std::vector<Member> list(ThreadPool* pool);
  /// Streams from `listed` (names and sizes), in base-name order with
  /// rotated families reassembled.
  void add_streams(std::span<const Member> listed);
  /// Splits every member into ranges and groups the ranges into chunks.
  void plan(const MinerOptions& options);
  /// Mines range `r`; `dir_fd` is the chunk's descriptor of `dir`.
  void mine_range(std::size_t r, int dir_fd);
};

std::vector<Member> MinePlan::Impl::list(ThreadPool* pool) {
  const std::unique_ptr<DIR, CloseDir> handle(::opendir(dir.c_str()));
  if (!handle) {
    throw std::runtime_error("MinePlan: cannot list " + dir.string() + ": " +
                             std::strerror(errno));
  }
  // One walk on this thread.  `names` grows during it, so the views wait
  // for its end.
  std::size_t count = 0;
  while (const struct ::dirent* entry = ::readdir(handle.get())) {
    if (entry->d_type != DT_REG && entry->d_type != DT_LNK &&
        entry->d_type != DT_UNKNOWN) {
      continue;  // directories, fifos, sockets, devices
    }
    names.append(entry->d_name, std::strlen(entry->d_name) + 1);
    ++count;
  }
  std::vector<Member> listed(count);
  const char* next = names.data();
  for (Member& member : listed) {
    member.name = next;
    next += std::strlen(next) + 1;
  }

  // One `fstatat` per entry, in slices that write only their own slots
  // (a byte per flag, not `vector<bool>`, so slices share no word).
  std::vector<std::uint8_t> regular(count, 0);
  const int dir_fd = ::dirfd(handle.get());
  const auto stat_slice = [&](std::size_t slice) {
    const std::size_t end = std::min(count, (slice + 1) * kStatSlice);
    for (std::size_t i = slice * kStatSlice; i < end; ++i) {
      struct ::stat st{};
      if (::fstatat(dir_fd, listed[i].name, &st, 0) != 0 ||
          !S_ISREG(st.st_mode)) {
        continue;  // vanished, dangling or not a regular file
      }
      listed[i].size = static_cast<std::uint64_t>(st.st_size);
      listed[i].dev = static_cast<std::uint64_t>(st.st_dev);
      listed[i].ino = static_cast<std::uint64_t>(st.st_ino);
      regular[i] = 1;
    }
  };
  const std::size_t slices = (count + kStatSlice - 1) / kStatSlice;
  if (pool != nullptr && slices > 1) {
    parallel_for(*pool, slices, stat_slice);
  } else {
    for (std::size_t slice = 0; slice < slices; ++slice) stat_slice(slice);
  }

  // Keep the regular files, in `readdir` order.
  std::size_t kept = 0;
  for (std::size_t i = 0; i < count; ++i) {
    if (regular[i]) listed[kept++] = listed[i];
  }
  listed.resize(kept);
  return listed;
}

void MinePlan::Impl::add_streams(std::span<const Member> listed) {
  std::vector<std::string_view> member_names;
  member_names.reserve(listed.size());
  for (const Member& member : listed) member_names.push_back(member.name);
  const RotationFamilies families = rotation_families(member_names);
  members.reserve(listed.size());
  for (const RotationFamily& family : families) {
    for (const std::size_t m : family.members) members.push_back(listed[m]);
  }
  // `members` is complete, so spans into it are now stable.  A family's
  // base views the name buffer, not `listed`.
  streams.reserve(families.size());
  std::size_t first = 0;
  for (const RotationFamily& family : families) {
    streams.push_back(Stream{
        family.base,
        std::span<const Member>(members).subspan(first, family.members.size())});
    first += family.members.size();
  }
}

void MinePlan::Impl::plan(const MinerOptions& options) {
  const std::uint64_t grain = options.shard_grain;
  const bool split = options.threads > 1 && grain > 0;
  const std::uint64_t target = 4 * options.threads;
  // Bytes of each range, for grouping ranges into chunks.
  std::vector<std::uint64_t> range_bytes;
  range_bytes.reserve(members.size());
  ranges.reserve(members.size());
  range_stream.reserve(members.size());
  std::uint64_t planned = 0;
  first_range.assign(streams.size() + 1, 0);
  for (std::size_t s = 0; s < streams.size(); ++s) {
    first_range[s] = ranges.size();
    for (std::size_t m = 0; m < streams[s].members.size(); ++m) {
      const Member& member = streams[s].members[m];
      planned += member.size;
      std::uint64_t len = member.size;
      if (split) len = std::max(grain, (member.size + target - 1) / target);
      len = std::max<std::uint64_t>(len, 1);
      const auto add = [&](std::uint64_t begin, std::uint64_t end,
                           std::uint64_t bytes) {
        ranges.push_back(Range{m, begin, end});
        range_stream.push_back(s);
        range_bytes.push_back(bytes);
      };
      if (member.lines == nullptr) {
        std::uint64_t begin = 0;
        do {
          const std::uint64_t end = std::min(member.size, begin + len);
          add(begin, end, end - begin);
          begin = end;
        } while (begin < member.size);
        continue;
      }
      // In memory: a range owns the lines that start in its bytes.
      const std::vector<std::string>& lines = *member.lines;
      std::size_t first = 0;
      std::uint64_t offset = 0;
      std::uint64_t range_start = 0;
      std::uint64_t limit = len;
      for (std::size_t i = 0; i < lines.size(); ++i) {
        if (offset >= limit) {
          add(first, i, offset - range_start);
          first = i;
          range_start = offset;
          limit = (offset / len + 1) * len;
        }
        offset += lines[i].size() + 1;
      }
      add(first, lines.size(), offset - range_start);
    }
  }
  first_range[streams.size()] = ranges.size();

  // Whole small files share a chunk until it holds about one grain.
  first_of_chunk.assign(1, 0);
  std::uint64_t chunk_bytes = 0;
  for (std::size_t r = 0; r < ranges.size(); ++r) {
    chunk_bytes += range_bytes[r];
    if (chunk_bytes >= grain) {
      first_of_chunk.push_back(r + 1);
      chunk_bytes = 0;
    }
  }
  if (first_of_chunk.back() != ranges.size()) {
    first_of_chunk.push_back(ranges.size());
  }
  outs.resize(ranges.size());

  static obs::Gauge& bytes_expected =
      obs::catalog_gauge(obs::metric::kMineBytesExpected);
  // Cumulative like the counters: `mine.bytes_expected - mine.bytes` is
  // the remaining work even across repeated mines.
  bytes_expected.add(static_cast<std::int64_t>(planned));
}

void MinePlan::Impl::mine_range(std::size_t r, int dir_fd) {
  const Range& range = ranges[r];
  const Member& member = streams[range_stream[r]].members[range.member];
  ChunkOut out;
  const auto feed = [&out](std::string_view line) { out.feed(line); };
  std::uint64_t consumed = 0;
  if (member.lines != nullptr) {
    for (std::uint64_t i = range.begin; i < range.end; ++i) {
      const std::string& line = (*member.lines)[i];
      feed(line);
      consumed += line.size() + 1;
    }
  } else {
    const std::optional<std::uint64_t> read =
        read_listed_range(dir_fd, member, range.begin, range.end, feed);
    out.unreadable = !read;
    consumed = read.value_or(0);
  }
  if (!out.unreadable) {
    lines_counter.add(out.cursor.line_no());
    bytes_counter.add(consumed);
  }
  outs[r] = std::move(out);
}

MinePlan::MinePlan(const std::filesystem::path& dir,
                   const MinerOptions& options, ThreadPool* pool)
    : impl_(std::make_unique<Impl>()) {
  const auto span = obs::Tracer::global().span("mine.plan");
  impl_->dir = dir;
  impl_->add_streams(impl_->list(pool));
  impl_->plan(options);
}

MinePlan::MinePlan(const logging::LogBundle& bundle,
                   const MinerOptions& options)
    : impl_(std::make_unique<Impl>()) {
  const auto span = obs::Tracer::global().span("mine.plan");
  const std::vector<std::string> names = bundle.stream_names();
  for (const std::string& name : names) {
    impl_->names.append(name.c_str(), name.size() + 1);
  }
  std::vector<Member> members(names.size());
  std::size_t at = 0;
  for (std::size_t i = 0; i < names.size(); ++i) {
    Member& member = members[i];
    member.name = impl_->names.data() + at;
    at += names[i].size() + 1;
    member.lines = &bundle.lines(names[i]);
    for (const std::string& line : *member.lines) {
      member.size += line.size() + 1;
    }
  }
  impl_->add_streams(members);
  impl_->plan(options);
}

MinePlan::~MinePlan() = default;
MinePlan::MinePlan(MinePlan&&) noexcept = default;
MinePlan& MinePlan::operator=(MinePlan&&) noexcept = default;

std::size_t MinePlan::stream_count() const { return impl_->streams.size(); }

std::size_t MinePlan::chunk_count() const {
  return impl_->first_of_chunk.size() - 1;
}

std::span<const std::size_t> MinePlan::streams_of(std::size_t chunk) const {
  const std::size_t first = impl_->first_of_chunk[chunk];
  return std::span<const std::size_t>(impl_->range_stream)
      .subspan(first, impl_->first_of_chunk[chunk + 1] - first);
}

std::size_t MinePlan::ranges_of(std::size_t stream) const {
  return impl_->first_range[stream + 1] - impl_->first_range[stream];
}

void MinePlan::run_chunk(std::size_t chunk) {
  const auto chunk_span = obs::Tracer::global().span("mine.chunk");
  // One descriptor of the directory per chunk, by path: a directory
  // renamed away since the listing is not read through, and a replacement
  // holds other inodes.  An open failure makes every file unreadable.
  const FileDescriptor dir(
      impl_->dir.empty()
          ? -1
          : ::open(impl_->dir.c_str(), O_RDONLY | O_DIRECTORY | O_CLOEXEC));
  for (std::size_t r = impl_->first_of_chunk[chunk];
       r < impl_->first_of_chunk[chunk + 1]; ++r) {
    impl_->mine_range(r, dir.fd);
  }
}

std::optional<MinedStream> MinePlan::stitch(
    std::size_t stream, std::vector<Diagnostic>& unreadable) {
  const Stream& plan = impl_->streams[stream];
  const std::size_t first = impl_->first_range[stream];
  const std::size_t last = impl_->first_range[stream + 1];
  // A file is read whole or not at all: one failed range loses it.
  std::vector<bool> lost(plan.members.size(), false);
  for (std::size_t r = first; r < last; ++r) {
    if (impl_->outs[r].unreadable) lost[impl_->ranges[r].member] = true;
  }
  std::vector<std::string_view> read;
  for (std::size_t m = 0; m < plan.members.size(); ++m) {
    const std::string_view name = plan.members[m].name;
    if (!lost[m]) {
      read.push_back(name);
      continue;
    }
    unreadable.push_back(
        logging::unreadable_file(std::string(name), impl_->dir / name));
  }
  if (read.empty()) return std::nullopt;
  MinedStream out;
  out.name = plan.name;
  if (auto gap = rotation_gap(plan.name, read)) {
    out.diagnostics.push_back(std::move(*gap));
  }

  // Sized once, room for FIRST_LOG included, and each range's rows are
  // released as they are copied in: the stream's rows are held at most
  // twice.
  std::size_t rows = 1;
  for (std::size_t r = first; r < last; ++r) {
    if (!lost[impl_->ranges[r].member]) rows += impl_->outs[r].events.size();
  }
  out.events.reserve(rows);
  StreamCursor cursor;
  for (std::size_t r = first; r < last; ++r) {
    if (lost[impl_->ranges[r].member]) continue;
    ChunkOut& range = impl_->outs[r];
    cursor.join(range.cursor);
    out.events.append(std::move(range.events));
  }
  out.kind = cursor.kind();
  out.lines_total = cursor.line_no();
  out.lines_unparsed = cursor.lines_unparsed();
  out.bound_app = cursor.bound_app();
  out.bound_container = cursor.first_container();
  cursor.render(out.name, out.diagnostics);
  out.diag_counts = logging::count_diagnostics(out.diagnostics);

  // Synthesize FIRST_LOG (messages 9/13) from the first parseable line
  // of instance logs.
  const std::optional<EventKind> first_log = cursor.first_log_kind();
  const std::optional<std::int64_t> first_ts = cursor.first_parsed_ts();
  if (first_log && first_ts) {
    out.events.push(*first_log, *first_ts, std::nullopt, std::nullopt);
  }

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

}  // namespace sdc::checker
