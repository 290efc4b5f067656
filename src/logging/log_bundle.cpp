#include "logging/log_bundle.hpp"

#include <algorithm>
#include <fstream>
#include <iterator>
#include <stdexcept>
#include <string_view>

#include "logging/line_reader.hpp"

namespace sdc::logging {

void LogBundle::append(const std::string& stream, std::string line) {
  streams_[stream].push_back(std::move(line));
}

const std::vector<std::string>& LogBundle::lines(
    const std::string& stream) const {
  static const std::vector<std::string> kEmpty;
  const auto it = streams_.find(stream);
  return it == streams_.end() ? kEmpty : it->second;
}

std::vector<std::string> LogBundle::stream_names() const {
  std::vector<std::string> out;
  out.reserve(streams_.size());
  for (const auto& [name, _] : streams_) out.push_back(name);
  return out;
}

bool LogBundle::has_stream(const std::string& stream) const {
  return streams_.contains(stream);
}

std::size_t LogBundle::total_lines() const {
  std::size_t n = 0;
  for (const auto& [_, lines] : streams_) n += lines.size();
  return n;
}

void LogBundle::write_to_directory(const std::filesystem::path& dir) const {
  std::filesystem::create_directories(dir);
  for (const auto& [name, lines] : streams_) {
    std::ofstream out(dir / name);
    if (!out) {
      throw std::runtime_error("LogBundle: cannot open " + (dir / name).string());
    }
    for (const auto& line : lines) out << line << '\n';
  }
}

LogBundle LogBundle::read_from_directory(const std::filesystem::path& dir) {
  if (!std::filesystem::is_directory(dir)) {
    throw std::runtime_error("LogBundle: not a directory: " + dir.string());
  }
  LogBundle bundle;
  std::vector<std::filesystem::path> files;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    if (entry.is_regular_file()) files.push_back(entry.path());
  }
  std::sort(files.begin(), files.end());
  for (const auto& path : files) {
    std::ifstream in(path, std::ios::binary);
    if (!in) {
      throw std::runtime_error("LogBundle: cannot read " + path.string());
    }
    const std::string bytes{std::istreambuf_iterator<char>(in), {}};
    auto& stream = bundle.streams_[path.filename().string()];
    const auto on_line = [&stream](std::string_view line) {
      stream.emplace_back(line);
    };
    LineSplitter splitter;
    splitter.split(bytes, on_line);
    splitter.finish(on_line);
  }
  return bundle;
}

}  // namespace sdc::logging
