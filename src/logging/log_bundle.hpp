// A bundle of named log streams — one per daemon, exactly as a real
// deployment leaves one file per RM / NodeManager / Spark driver /
// Spark executor.  The simulator appends *rendered text lines* (never
// structured records), so everything downstream must genuinely parse, and
// a bundle can round-trip through a directory of plain log files.
#pragma once

#include <cstddef>
#include <filesystem>
#include <map>
#include <string>
#include <vector>

namespace sdc::logging {

/// Ordered collection of named log streams.  Stream names double as file
/// names when written to a directory (e.g. "rm.log", "nm-node03.log").
class LogBundle {
 public:
  LogBundle() = default;

  /// Appends one rendered line to the named stream, creating it if new.
  void append(const std::string& stream, std::string line);

  /// Lines of one stream; empty vector if the stream does not exist.
  [[nodiscard]] const std::vector<std::string>& lines(
      const std::string& stream) const;

  /// All stream names in lexicographic order.
  [[nodiscard]] std::vector<std::string> stream_names() const;

  [[nodiscard]] bool has_stream(const std::string& stream) const;
  [[nodiscard]] std::size_t stream_count() const noexcept {
    return streams_.size();
  }
  /// Total line count across every stream.
  [[nodiscard]] std::size_t total_lines() const;

  /// Writes each stream as `<dir>/<name>`; creates `dir` if missing.
  /// Throws std::runtime_error on I/O failure.
  void write_to_directory(const std::filesystem::path& dir) const;

  /// Reads every regular file in `dir` (non-recursive) as one stream per
  /// file, cut into lines as the miner cuts them (`LineSplitter`): raw,
  /// so a CRLF line keeps its '\r' here and loses it where the miner
  /// parses it.  Throws std::runtime_error if `dir` is not a directory or
  /// a file cannot be read.
  static LogBundle read_from_directory(const std::filesystem::path& dir);

  bool operator==(const LogBundle&) const = default;

 private:
  std::map<std::string, std::vector<std::string>> streams_;
};

}  // namespace sdc::logging
