// Minimal JSON writer (no external dependencies): enough to serialize
// SDchecker reports for dashboards and scripts.  Writer-only by design —
// the tool consumes logs, not JSON.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

namespace sdc::json {

/// Escapes a string for inclusion inside JSON quotes.
std::string escape(std::string_view text);

/// Streaming JSON builder with explicit begin/end calls.  The caller is
/// responsible for balanced nesting; commas are inserted automatically.
class Writer {
 public:
  Writer& begin_object();
  Writer& end_object();
  Writer& begin_array();
  Writer& end_array();

  /// Starts a keyed value inside an object: `"key":` (value follows).
  Writer& key(std::string_view name);

  Writer& value(std::string_view text);
  Writer& value(const char* text) { return value(std::string_view(text)); }
  Writer& value(std::int64_t number);
  Writer& value(double number);
  Writer& value(bool boolean);
  Writer& null();
  /// Splices an already-serialized JSON value verbatim (no escaping, no
  /// validation) — for embedding sub-documents produced elsewhere, by
  /// another writer or from literal fragments.
  Writer& raw(std::string_view json);

  /// Convenience: key + value in one call.
  template <typename T>
  Writer& field(std::string_view name, const T& v) {
    key(name);
    return value(v);
  }

  /// Reserves room for a document of about `bytes`, so a caller that
  /// can estimate its size writes it without regrowing.
  void reserve(std::size_t bytes) { out_.reserve(bytes); }

  [[nodiscard]] const std::string& str() const noexcept { return out_; }
  [[nodiscard]] std::string take() noexcept { return std::move(out_); }

 private:
  void comma_if_needed();

  std::string out_;
  /// Whether the next emission at the current nesting level needs a
  /// preceding comma; maintained as a stack encoded in a string for
  /// simplicity ('0' = first element pending, '1' = comma needed).
  std::string stack_;
  bool pending_key_ = false;
};

}  // namespace sdc::json
