// The repository's JSON: string escaping, locale-independent number
// formatting, and the one strict reader. The reader parses untrusted
// sgp-serve request lines under hard limits (depth, element counts,
// string bytes) and, with the caps lifted, self-checks every file the
// obs layer writes before it is handed to about:tracing/Perfetto or
// downstream tooling — so bytes we read and bytes we write obey one
// grammar. It never throws on malformed input: every failure is a
// structured error with an approximate byte offset, classified
// deterministically so the fuzz driver can replay it.
//
// Grammar is RFC 8259 with the strictness the fuzz tests demand:
//   * exactly one top-level value, no trailing bytes;
//   * strings must be valid UTF-8 (overlong encodings, lone surrogates
//     in \u escapes and stray continuation bytes are rejected);
//   * numbers must round-trip through from_chars;
//   * duplicate object keys are rejected (a request with two "id"
//     fields is ambiguous, and ambiguity on untrusted input is a bug).
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace sgp::obs {

/// `s` as a quoted JSON string with control characters, quotes and
/// backslashes escaped. Each byte that does not start a well-formed
/// UTF-8 sequence (the reader's rule) becomes U+FFFD, so the result is
/// valid JSON for any input; valid UTF-8 passes through unchanged.
std::string json_quote(std::string_view s);

/// A double as a JSON number token, locale-independent
/// (std::to_chars). Non-finite values have no JSON representation and
/// are emitted as null.
std::string json_number(double v);
std::string json_number(std::uint64_t v);

class JsonValue;
using JsonArray = std::vector<JsonValue>;
/// Ordered map: error messages ("unknown field ...") are deterministic.
using JsonObject = std::vector<std::pair<std::string, JsonValue>>;

/// One parsed JSON value. Numbers keep their raw token so integer
/// fields can be re-parsed at full 64-bit range (a double loses
/// precision above 2^53).
class JsonValue {
 public:
  enum class Kind { Null, Bool, Number, String, Array, Object };

  Kind kind = Kind::Null;
  bool boolean = false;
  double number = 0.0;
  std::string raw;     ///< exact number token (Kind::Number only)
  std::string string;  ///< decoded text (Kind::String only)
  JsonArray array;
  JsonObject object;

  bool is_null() const noexcept { return kind == Kind::Null; }
  bool is_bool() const noexcept { return kind == Kind::Bool; }
  bool is_number() const noexcept { return kind == Kind::Number; }
  bool is_string() const noexcept { return kind == Kind::String; }
  bool is_array() const noexcept { return kind == Kind::Array; }
  bool is_object() const noexcept { return kind == Kind::Object; }

  /// Member lookup on an object; nullptr when absent or not an object.
  const JsonValue* find(std::string_view key) const noexcept;
};

/// Outcome of one parse: either `value` is set, or `error` holds a
/// human-readable message with `offset` pointing near the problem.
struct JsonParse {
  std::optional<JsonValue> value;
  std::string error;
  std::size_t offset = 0;

  bool ok() const noexcept { return value.has_value(); }
};

struct JsonLimits {
  std::size_t max_depth = 32;        ///< nesting of arrays/objects
  std::size_t max_elements = 4096;   ///< total values in the document
  std::size_t max_string_bytes = 64 * 1024;  ///< one decoded string
};

/// Parses exactly one JSON document from `text`. Never throws on
/// malformed input; limits violations are ordinary parse errors.
JsonParse json_parse(std::string_view text, const JsonLimits& limits = {});

/// Checks that `text` is one JSON value under the reader's grammar,
/// with the default nesting limit and no element or string cap (this
/// is the self-check for our own output, not a request limit).
/// Returns std::nullopt on success, or "<error> at offset <n>".
std::optional<std::string> json_error(std::string_view text);

inline bool json_valid(std::string_view text) {
  return !json_error(text).has_value();
}

}  // namespace sgp::obs
