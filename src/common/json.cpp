#include "common/json.hpp"

#include <charconv>
#include <cmath>

namespace sdc::json {
namespace {

/// Appends `text` escaped for inclusion inside JSON quotes: runs of
/// bytes that need no escape are copied whole.
void append_escaped(std::string& out, std::string_view text) {
  static constexpr char kHex[] = "0123456789abcdef";
  std::size_t run = 0;
  for (std::size_t i = 0; i < text.size(); ++i) {
    const auto c = static_cast<unsigned char>(text[i]);
    if (c >= 0x20 && c != '"' && c != '\\') continue;
    out.append(text.data() + run, i - run);
    run = i + 1;
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\r':
        out += "\\r";
        break;
      case '\t':
        out += "\\t";
        break;
      default: {
        const char escaped[] = {'\\', 'u', '0', '0', kHex[c >> 4],
                                kHex[c & 0xf]};
        out.append(escaped, sizeof(escaped));
      }
    }
  }
  out.append(text.data() + run, text.size() - run);
}

}  // namespace

std::string escape(std::string_view text) {
  std::string out;
  out.reserve(text.size() + 8);
  append_escaped(out, text);
  return out;
}

void Writer::comma_if_needed() {
  if (pending_key_) {
    pending_key_ = false;
    return;  // value follows its key, no comma
  }
  if (!stack_.empty()) {
    if (stack_.back() == '1') {
      out_ += ',';
    } else {
      stack_.back() = '1';
    }
  }
}

Writer& Writer::begin_object() {
  comma_if_needed();
  out_ += '{';
  stack_ += '0';
  return *this;
}

Writer& Writer::end_object() {
  out_ += '}';
  if (!stack_.empty()) stack_.pop_back();
  return *this;
}

Writer& Writer::begin_array() {
  comma_if_needed();
  out_ += '[';
  stack_ += '0';
  return *this;
}

Writer& Writer::end_array() {
  out_ += ']';
  if (!stack_.empty()) stack_.pop_back();
  return *this;
}

Writer& Writer::key(std::string_view name) {
  comma_if_needed();
  out_ += '"';
  append_escaped(out_, name);
  out_ += "\":";
  pending_key_ = true;
  return *this;
}

Writer& Writer::value(std::string_view text) {
  comma_if_needed();
  out_ += '"';
  append_escaped(out_, text);
  out_ += '"';
  return *this;
}

Writer& Writer::value(std::int64_t number) {
  comma_if_needed();
  char buf[24];
  const char* end = std::to_chars(buf, buf + sizeof(buf), number).ptr;
  out_.append(buf, static_cast<std::size_t>(end - buf));
  return *this;
}

Writer& Writer::value(double number) {
  comma_if_needed();
  if (!std::isfinite(number)) {
    out_ += "null";
    return *this;
  }
  // printf's `%.6g`, which the standard defines this call to match.
  char buf[32];
  const char* end = std::to_chars(buf, buf + sizeof(buf), number,
                                  std::chars_format::general, 6)
                        .ptr;
  out_.append(buf, static_cast<std::size_t>(end - buf));
  return *this;
}

Writer& Writer::value(bool boolean) {
  comma_if_needed();
  out_ += boolean ? "true" : "false";
  return *this;
}

Writer& Writer::null() {
  comma_if_needed();
  out_ += "null";
  return *this;
}

Writer& Writer::raw(std::string_view json) {
  comma_if_needed();
  out_ += json;
  return *this;
}

}  // namespace sdc::json
