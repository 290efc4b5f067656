#include "common/ids.hpp"

#include <algorithm>
#include <charconv>
#include <cstdio>

namespace sdc {
namespace {

/// Parses a decimal integer span; advances `pos` past it on success.
template <typename Int>
bool parse_int(std::string_view text, std::size_t& pos, Int& out) {
  const char* first = text.data() + pos;
  const char* last = text.data() + text.size();
  auto [ptr, ec] = std::from_chars(first, last, out);
  if (ec != std::errc{} || ptr == first) return false;
  pos += static_cast<std::size_t>(ptr - first);
  return true;
}

/// Writes `value` in decimal at `out`, zero-padded after any sign to
/// `width` characters — printf's `%0<width>lld`.  Returns the end.
char* put_int(char* out, std::int64_t value, int width = 0) {
  char digits[24];
  const char* end = std::to_chars(digits, digits + sizeof(digits), value).ptr;
  const char* first = digits;
  if (value < 0) *out++ = *first++;
  for (auto pad = width - (end - digits); pad > 0; --pad) *out++ = '0';
  return std::copy(first, end, out);
}

/// Copies a literal at `out`; returns the end.
char* put(char* out, std::string_view text) {
  return std::copy(text.begin(), text.end(), out);
}

/// Consumes a literal prefix; advances `pos` past it on success.
bool consume(std::string_view text, std::size_t& pos, std::string_view lit) {
  if (text.substr(pos, lit.size()) != lit) return false;
  pos += lit.size();
  return true;
}

}  // namespace

std::string ApplicationId::str() const {
  char buf[64];
  char* end = put(buf, "application_");
  end = put_int(end, cluster_ts);
  end = put(end, "_");
  end = put_int(end, id, 4);
  return std::string(buf, end);
}

std::optional<ApplicationId> ApplicationId::parse(std::string_view text) {
  std::size_t pos = 0;
  ApplicationId out;
  if (!consume(text, pos, "application_")) return std::nullopt;
  if (!parse_int(text, pos, out.cluster_ts)) return std::nullopt;
  if (!consume(text, pos, "_")) return std::nullopt;
  if (!parse_int(text, pos, out.id)) return std::nullopt;
  if (pos != text.size()) return std::nullopt;
  return out;
}

std::string ContainerId::str() const {
  char buf[96];
  char* end = put(buf, "container_");
  end = put_int(end, app.cluster_ts);
  end = put(end, "_");
  end = put_int(end, app.id, 4);
  end = put(end, "_");
  end = put_int(end, attempt, 2);
  end = put(end, "_");
  end = put_int(end, id, 6);
  return std::string(buf, end);
}

std::optional<ContainerId> ContainerId::parse(std::string_view text) {
  std::size_t pos = 0;
  ContainerId out;
  if (!consume(text, pos, "container_")) return std::nullopt;
  // Hadoop 2.8+ embeds the RM epoch for work-preserving restarts:
  // `container_e17_<clusterTs>_...`.  The epoch does not participate in
  // identity here (single RM incarnation per analysis) — skip it.
  if (pos < text.size() && text[pos] == 'e') {
    std::size_t epoch_pos = pos + 1;
    std::int32_t epoch = 0;
    if (!parse_int(text, epoch_pos, epoch)) return std::nullopt;
    if (!consume(text, epoch_pos, "_")) return std::nullopt;
    pos = epoch_pos;
  }
  if (!parse_int(text, pos, out.app.cluster_ts)) return std::nullopt;
  if (!consume(text, pos, "_")) return std::nullopt;
  if (!parse_int(text, pos, out.app.id)) return std::nullopt;
  if (!consume(text, pos, "_")) return std::nullopt;
  if (!parse_int(text, pos, out.attempt)) return std::nullopt;
  if (!consume(text, pos, "_")) return std::nullopt;
  if (!parse_int(text, pos, out.id)) return std::nullopt;
  if (pos != text.size()) return std::nullopt;
  return out;
}

std::string NodeId::str() const { return hostname() + ":45454"; }

std::string NodeId::hostname() const {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "node%02d.cluster", index);
  return buf;
}

std::optional<NodeId> NodeId::parse(std::string_view text) {
  std::size_t pos = 0;
  NodeId out;
  if (!consume(text, pos, "node")) return std::nullopt;
  if (!parse_int(text, pos, out.index)) return std::nullopt;
  if (!consume(text, pos, ".cluster")) return std::nullopt;
  if (pos != text.size() && !consume(text, pos, ":45454")) return std::nullopt;
  if (pos != text.size()) return std::nullopt;
  return out;
}

}  // namespace sdc
