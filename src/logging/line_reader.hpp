// Line splitting for every byte-level reader of log files.
//
// Batch mining reads byte ranges of files inside its chunk tasks, follow
// mode reads the bytes appended to tails, and `LogBundle` reads whole
// files; all cut the bytes into lines here, so they agree on what a line
// is: the bytes before a '\n', and, at the end of the input, the bytes
// after the last '\n'.
// Lines are handed out raw — the trailing '\r' of a CRLF-terminated log
// is stripped by `StreamCursor::feed`, the one place that rule lives.
#pragma once

#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <optional>
#include <span>
#include <string>
#include <string_view>

namespace sdc::logging {

/// The most bytes one `pread` asks for: a batch chunk and a follow tail
/// each hold one block of this size, however large the file.
inline constexpr std::size_t kReadBlock = std::size_t{1} << 20;

/// Cuts bytes that arrive in pieces into lines.  A line that spans two
/// pieces is carried (copied) until its newline arrives; every other
/// line is handed out as a view into the piece.
class LineSplitter {
 public:
  /// Calls `on_line(std::string_view)` for every line `bytes` completes,
  /// in order, and carries the unterminated remainder.
  template <typename OnLine>
  void split(std::string_view bytes, OnLine&& on_line) {
    std::size_t start = 0;
    while (start < bytes.size()) {
      const void* hit =
          std::memchr(bytes.data() + start, '\n', bytes.size() - start);
      if (hit == nullptr) break;
      const auto nl = static_cast<std::size_t>(
          static_cast<const char*>(hit) - bytes.data());
      if (carried_.empty()) {
        on_line(bytes.substr(start, nl - start));
      } else {
        carried_.append(bytes.substr(start, nl - start));
        on_line(std::string_view(carried_));
        carried_.clear();
      }
      start = nl + 1;
    }
    carried_.append(bytes.substr(start));
  }

  /// Hands out the carried unterminated line, if any: at the end of the
  /// input it is a whole line.
  template <typename OnLine>
  void finish(OnLine&& on_line) {
    if (carried_.empty()) return;
    on_line(std::string_view(carried_));
    carried_.clear();
  }

  /// Whether an unterminated line is carried.
  [[nodiscard]] bool pending() const noexcept { return !carried_.empty(); }
  /// Drops the carried bytes (their file was truncated under the reader).
  void clear() noexcept { carried_.clear(); }

 private:
  std::string carried_;
};

/// Reads the lines that start in bytes [begin, end) of the open file
/// `fd`, taking `size` as its end: a line starting at or after `begin`
/// begins just past the first '\n' at or after `begin - 1`, and the last
/// one is read to its end even past `end`.  So ranges that tile
/// [0, size) hand out every line exactly once.  A file shorter than
/// `size` (truncated after it was sized) ends where it ends, and bytes
/// appended after `size` are never read.  Reads through `block`, one
/// `pread` at a time, and returns the bytes of the lines handed out
/// (their newlines included), or nullopt when a read fails.
template <typename OnLine>
std::optional<std::uint64_t> read_line_range(int fd, std::uint64_t begin,
                                             std::uint64_t end,
                                             std::uint64_t size,
                                             std::span<char> block,
                                             OnLine&& on_line) {
  if (begin >= end) return 0;
  LineSplitter splitter;
  std::uint64_t consumed = 0;
  std::uint64_t pos = begin == 0 ? 0 : begin - 1;
  bool skipping = begin > 0;
  while (pos < size) {
    const auto want = static_cast<std::size_t>(
        std::min<std::uint64_t>(block.size(), size - pos));
    const ::ssize_t got =
        ::pread(fd, block.data(), want, static_cast<::off_t>(pos));
    if (got < 0 && errno == EINTR) continue;
    if (got < 0) return std::nullopt;
    if (got == 0) break;  // truncated since it was sized
    const std::string_view bytes(block.data(), static_cast<std::size_t>(got));
    std::size_t from = 0;
    if (skipping) {
      const void* nl = std::memchr(bytes.data(), '\n', bytes.size());
      if (nl == nullptr) {
        pos += bytes.size();
        continue;
      }
      from = static_cast<std::size_t>(static_cast<const char*>(nl) -
                                      bytes.data()) + 1;
      skipping = false;
      if (pos + from >= end) return consumed;  // no line starts in range
    }
    // The last line ends at the first '\n' at or after `end - 1`.
    const std::uint64_t scan = std::max(pos + from, end - 1);
    if (scan < pos + bytes.size()) {
      const auto at = static_cast<std::size_t>(scan - pos);
      if (const void* nl =
              std::memchr(bytes.data() + at, '\n', bytes.size() - at)) {
        const auto stop = static_cast<std::size_t>(
            static_cast<const char*>(nl) - bytes.data()) + 1;
        splitter.split(bytes.substr(from, stop - from), on_line);
        return consumed + (stop - from);
      }
    }
    splitter.split(bytes.substr(from), on_line);
    consumed += bytes.size() - from;
    pos += bytes.size();
  }
  splitter.finish(on_line);
  return consumed;
}

}  // namespace sdc::logging
