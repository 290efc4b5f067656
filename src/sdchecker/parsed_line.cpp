#include "sdchecker/parsed_line.hpp"

#include <cstdint>

#include "logging/timestamp.hpp"

namespace sdc::checker {

namespace {

/// Parses Spark's default log4j pattern `yy/MM/dd HH:mm:ss` (two-digit
/// year, second precision, no milliseconds).  Returns epoch ms.
std::optional<std::int64_t> parse_spark_short_ts(std::string_view text) {
  // Layout: yy/MM/dd HH:mm:ss  (17 chars).  Branchless like
  // logging::parse_epoch_ms: accumulate a bad flag across all positions,
  // exit once.
  if (text.size() < 17) return std::nullopt;
  const char* p = text.data();
  std::uint32_t bad = 0;
  const auto digits = [p, &bad](std::size_t pos) -> std::uint32_t {
    const std::uint32_t a =
        static_cast<std::uint32_t>(static_cast<unsigned char>(p[pos])) - '0';
    const std::uint32_t b =
        static_cast<std::uint32_t>(static_cast<unsigned char>(p[pos + 1])) -
        '0';
    bad |= (a > 9u) | (b > 9u);
    return a * 10 + b;
  };
  bad |= p[2] != '/';
  bad |= p[5] != '/';
  bad |= p[8] != ' ';
  bad |= p[11] != ':';
  bad |= p[14] != ':';
  const std::uint32_t yy = digits(0);
  const std::uint32_t mo = digits(3);
  const std::uint32_t dd = digits(6);
  const std::uint32_t hh = digits(9);
  const std::uint32_t mi = digits(12);
  const std::uint32_t ss = digits(15);
  bad |= hh > 23u;
  bad |= mi > 59u;
  bad |= ss > 59u;
  if (bad != 0) return std::nullopt;
  // Same impossible-date guard as the log4j parser: Feb 31 is corruption,
  // not a date.
  if (!logging::valid_civil_date(2000 + yy, mo, dd)) return std::nullopt;
  // Two-digit years are 2000-based (Spark logs post-date 2000 by far).
  return logging::epoch_ms_from_civil(2000 + yy, mo, dd,
                                      static_cast<int>(hh),
                                      static_cast<int>(mi),
                                      static_cast<int>(ss), 0);
}

}  // namespace

std::optional<ParsedLine> parse_line(std::string_view line) {
  using logging::kTimestampWidth;
  if (line.size() < 19) return std::nullopt;
  std::size_t ts_width = kTimestampWidth;
  auto ts = line.size() >= kTimestampWidth
                ? logging::parse_epoch_ms(line.substr(0, kTimestampWidth))
                : std::nullopt;
  if (!ts) {
    // Spark's default console pattern: second precision, 17-char stamp.
    ts = parse_spark_short_ts(line);
    if (!ts) return std::nullopt;
    ts_width = 17;
  }
  std::string_view rest = line.substr(ts_width);
  if (rest.empty() || rest.front() != ' ') return std::nullopt;
  rest.remove_prefix(1);
  // Level token (letters only), then whitespace.
  std::size_t level_end = 0;
  while (level_end < rest.size() && rest[level_end] >= 'A' &&
         rest[level_end] <= 'Z') {
    ++level_end;
  }
  if (level_end == 0) return std::nullopt;
  const std::string_view level = rest.substr(0, level_end);
  rest.remove_prefix(level_end);
  while (!rest.empty() && rest.front() == ' ') rest.remove_prefix(1);
  // Logger class up to ": ".  The search hunts colons with memchr and
  // confirms the space (logger names contain no ':', so the first hit is
  // almost always the separator).
  const std::size_t sep = rest.find(": ");
  if (sep == std::string_view::npos || sep == 0) return std::nullopt;
  ParsedLine out;
  out.epoch_ms = *ts;
  out.level = level;
  out.logger = rest.substr(0, sep);
  out.message = rest.substr(sep + 2);
  return out;
}

std::string_view short_class_name(std::string_view logger) {
  const std::size_t dot = logger.rfind('.');
  if (dot == std::string_view::npos) return logger;
  return logger.substr(dot + 1);
}

namespace {

/// True when `line` is a strict prefix of the log4j stamp layout
/// "YYYY-MM-DD HH:MM:SS,mmm" — the signature of a line cut inside its
/// timestamp.
bool looks_like_stamp_prefix(std::string_view line) {
  if (line.empty() || line.size() >= logging::kTimestampWidth) return false;
  for (std::size_t i = 0; i < line.size(); ++i) {
    const char c = line[i];
    const char sep = i == 4 || i == 7     ? '-'
                     : i == 10            ? ' '
                     : i == 13 || i == 16 ? ':'
                     : i == 19            ? ','
                                          : '\0';
    if (sep != '\0') {
      if (c != sep) return false;
    } else if (c < '0' || c > '9') {
      return false;
    }
  }
  return true;
}

}  // namespace

UnparsedClass classify_unparsed_line(std::string_view line) {
  std::size_t nonprint = 0;
  for (const char c : line) {
    if (c == '\0') return UnparsedClass::kBinaryGarbage;
    const auto u = static_cast<unsigned char>(c);
    if ((u < 0x20 && c != '\t') || u == 0x7f) ++nonprint;
  }
  if (line.size() >= 4 && nonprint * 10 > line.size() * 3) {
    return UnparsedClass::kBinaryGarbage;
  }
  if (line.size() >= logging::kTimestampWidth &&
      logging::parse_epoch_ms(line.substr(0, logging::kTimestampWidth))) {
    return UnparsedClass::kTruncated;
  }
  if (looks_like_stamp_prefix(line)) return UnparsedClass::kTruncated;
  return UnparsedClass::kPlain;
}

}  // namespace sdc::checker
