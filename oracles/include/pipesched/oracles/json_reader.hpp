// Minimal recursive-descent JSON parser: the tree-building reference for the
// library's in-place JSONL tokenizer (io::LiteParser), and the reader the
// tests use to inspect JSON output. Test- and bench-only (pipesched_oracles).
//
// Parses one complete JSON text into a JsonValue tree. Deliberately small:
// no SAX interface, no number-preserving bignum handling (numbers are
// doubles, with checked integer accessors), object members kept in input
// order with first-match lookup. Malformed input throws io::ParseError with
// the 1-based line of the offending character.
#pragma once

#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "pipesched/io/format.hpp"

namespace pipesched::io {

class JsonValue {
 public:
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };
  using Member = std::pair<std::string, JsonValue>;

  Type type = Type::kNull;
  bool boolean = false;
  double number = 0;
  std::string text;
  std::vector<JsonValue> items;    ///< array elements
  std::vector<Member> members;     ///< object members, input order

  [[nodiscard]] bool isNull() const noexcept { return type == Type::kNull; }
  [[nodiscard]] bool isBool() const noexcept { return type == Type::kBool; }
  [[nodiscard]] bool isNumber() const noexcept { return type == Type::kNumber; }
  [[nodiscard]] bool isString() const noexcept { return type == Type::kString; }
  [[nodiscard]] bool isArray() const noexcept { return type == Type::kArray; }
  [[nodiscard]] bool isObject() const noexcept { return type == Type::kObject; }

  /// First member named `key`, or nullptr (also when not an object).
  [[nodiscard]] const JsonValue* find(const std::string& key) const;

  /// Checked accessors; throw std::runtime_error naming the expected type.
  [[nodiscard]] const std::string& asString() const;
  [[nodiscard]] double asNumber() const;
  [[nodiscard]] bool asBool() const;
  /// asNumber() restricted to exact non-negative integers (rejects 1.5, -1).
  [[nodiscard]] std::size_t asSize() const;
  [[nodiscard]] std::uint64_t asU64() const;
};

/// Parses exactly one JSON value spanning all of `text` (surrounding
/// whitespace allowed; anything else after the value is an error).
[[nodiscard]] JsonValue parseJson(std::string_view text);

}  // namespace pipesched::io
