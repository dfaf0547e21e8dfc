#include "pipesched/oracles/json_reader.hpp"

#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <stdexcept>

namespace pipesched::io {

namespace {

class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  JsonValue parseDocument() {
    skipWhitespace();
    JsonValue value = parseValue();
    skipWhitespace();
    if (pos_ != text_.size()) fail("trailing characters after JSON value");
    return value;
  }

 private:
  [[noreturn]] void fail(const std::string& message) const {
    std::size_t line = 1;
    for (std::size_t i = 0; i < pos_ && i < text_.size(); ++i) {
      if (text_[i] == '\n') ++line;
    }
    throw ParseError(line, message);
  }

  [[nodiscard]] bool atEnd() const noexcept { return pos_ >= text_.size(); }

  [[nodiscard]] char peek() const {
    if (atEnd()) fail("unexpected end of input");
    return text_[pos_];
  }

  char take() {
    const char c = peek();
    ++pos_;
    return c;
  }

  void expect(char c, const char* what) {
    if (atEnd() || text_[pos_] != c) fail(std::string("expected ") + what);
    ++pos_;
  }

  void skipWhitespace() {
    while (!atEnd()) {
      const char c = text_[pos_];
      if (c != ' ' && c != '\t' && c != '\n' && c != '\r') break;
      ++pos_;
    }
  }

  JsonValue parseValue() {
    switch (peek()) {
      case '{': return parseObject();
      case '[': return parseArray();
      case '"': return parseString();
      case 't': return parseKeyword("true", [](JsonValue& v) {
        v.type = JsonValue::Type::kBool;
        v.boolean = true;
      });
      case 'f': return parseKeyword("false", [](JsonValue& v) {
        v.type = JsonValue::Type::kBool;
        v.boolean = false;
      });
      case 'n': return parseKeyword("null", [](JsonValue& v) {
        v.type = JsonValue::Type::kNull;
      });
      default: return parseNumber();
    }
  }

  template <typename Fill>
  JsonValue parseKeyword(std::string_view word, Fill fill) {
    if (text_.substr(pos_, word.size()) != word) fail("invalid token");
    pos_ += word.size();
    JsonValue value;
    fill(value);
    return value;
  }

  JsonValue parseObject() {
    expect('{', "'{'");
    JsonValue value;
    value.type = JsonValue::Type::kObject;
    skipWhitespace();
    if (!atEnd() && text_[pos_] == '}') {
      ++pos_;
      return value;
    }
    for (;;) {
      skipWhitespace();
      if (atEnd() || text_[pos_] != '"') fail("expected object key string");
      JsonValue key = parseString();
      skipWhitespace();
      expect(':', "':' after object key");
      skipWhitespace();
      value.members.emplace_back(std::move(key.text), parseValue());
      skipWhitespace();
      const char c = take();
      if (c == '}') return value;
      if (c != ',') fail("expected ',' or '}' in object");
    }
  }

  JsonValue parseArray() {
    expect('[', "'['");
    JsonValue value;
    value.type = JsonValue::Type::kArray;
    skipWhitespace();
    if (!atEnd() && text_[pos_] == ']') {
      ++pos_;
      return value;
    }
    for (;;) {
      skipWhitespace();
      value.items.push_back(parseValue());
      skipWhitespace();
      const char c = take();
      if (c == ']') return value;
      if (c != ',') fail("expected ',' or ']' in array");
    }
  }

  JsonValue parseString() {
    expect('"', "'\"'");
    JsonValue value;
    value.type = JsonValue::Type::kString;
    for (;;) {
      if (atEnd()) fail("unterminated string");
      const char c = take();
      if (c == '"') return value;
      if (static_cast<unsigned char>(c) < 0x20) fail("unescaped control character in string");
      if (c != '\\') {
        value.text.push_back(c);
        continue;
      }
      const char esc = take();
      switch (esc) {
        case '"': value.text.push_back('"'); break;
        case '\\': value.text.push_back('\\'); break;
        case '/': value.text.push_back('/'); break;
        case 'b': value.text.push_back('\b'); break;
        case 'f': value.text.push_back('\f'); break;
        case 'n': value.text.push_back('\n'); break;
        case 'r': value.text.push_back('\r'); break;
        case 't': value.text.push_back('\t'); break;
        case 'u': appendUnicodeEscape(value.text); break;
        default: fail("invalid escape sequence");
      }
    }
  }

  unsigned readHex4() {
    unsigned code = 0;
    for (int i = 0; i < 4; ++i) {
      const char c = take();
      code <<= 4;
      if (c >= '0' && c <= '9') code |= static_cast<unsigned>(c - '0');
      else if (c >= 'a' && c <= 'f') code |= static_cast<unsigned>(c - 'a' + 10);
      else if (c >= 'A' && c <= 'F') code |= static_cast<unsigned>(c - 'A' + 10);
      else fail("invalid \\u escape digit");
    }
    return code;
  }

  void appendUnicodeEscape(std::string& out) {
    unsigned code = readHex4();
    if (code >= 0xD800 && code <= 0xDBFF) {  // high surrogate: need the pair
      if (atEnd() || take() != '\\' || atEnd() || take() != 'u') {
        fail("unpaired UTF-16 surrogate in \\u escape");
      }
      const unsigned low = readHex4();
      if (low < 0xDC00 || low > 0xDFFF) fail("invalid low surrogate in \\u escape");
      code = 0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00);
    } else if (code >= 0xDC00 && code <= 0xDFFF) {
      fail("unpaired UTF-16 surrogate in \\u escape");
    }
    // UTF-8 encode.
    if (code < 0x80) {
      out.push_back(static_cast<char>(code));
    } else if (code < 0x800) {
      out.push_back(static_cast<char>(0xC0 | (code >> 6)));
      out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
    } else if (code < 0x10000) {
      out.push_back(static_cast<char>(0xE0 | (code >> 12)));
      out.push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3F)));
      out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
    } else {
      out.push_back(static_cast<char>(0xF0 | (code >> 18)));
      out.push_back(static_cast<char>(0x80 | ((code >> 12) & 0x3F)));
      out.push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3F)));
      out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
    }
  }

  JsonValue parseNumber() {
    const std::size_t start = pos_;
    if (!atEnd() && text_[pos_] == '-') ++pos_;
    const auto digits = [&] {
      std::size_t n = 0;
      while (!atEnd() && text_[pos_] >= '0' && text_[pos_] <= '9') {
        ++pos_;
        ++n;
      }
      return n;
    };
    if (digits() == 0) {
      pos_ = start;
      fail("invalid token");
    }
    if (!atEnd() && text_[pos_] == '.') {
      ++pos_;
      if (digits() == 0) fail("expected digits after decimal point");
    }
    if (!atEnd() && (text_[pos_] == 'e' || text_[pos_] == 'E')) {
      ++pos_;
      if (!atEnd() && (text_[pos_] == '+' || text_[pos_] == '-')) ++pos_;
      if (digits() == 0) fail("expected digits in exponent");
    }
    const std::string token(text_.substr(start, pos_ - start));
    errno = 0;
    char* end = nullptr;
    const double parsed = std::strtod(token.c_str(), &end);
    // ERANGE underflow (subnormal/zero result, e.g. 1e-310) is a valid JSON
    // number — only overflow to +/-HUGE_VAL is an error.
    const bool overflow = errno == ERANGE && (parsed == HUGE_VAL || parsed == -HUGE_VAL);
    if (end != token.c_str() + token.size() || overflow) {
      pos_ = start;
      fail("number out of range");
    }
    JsonValue value;
    value.type = JsonValue::Type::kNumber;
    value.number = parsed;
    return value;
  }

  std::string_view text_;
  std::size_t pos_ = 0;
};

[[noreturn]] void typeError(const char* expected) {
  throw std::runtime_error(std::string("JSON value is not a ") + expected);
}

}  // namespace

const JsonValue* JsonValue::find(const std::string& key) const {
  if (!isObject()) return nullptr;
  for (const Member& member : members) {
    if (member.first == key) return &member.second;
  }
  return nullptr;
}

const std::string& JsonValue::asString() const {
  if (!isString()) typeError("string");
  return text;
}

double JsonValue::asNumber() const {
  if (!isNumber()) typeError("number");
  return number;
}

bool JsonValue::asBool() const {
  if (!isBool()) typeError("boolean");
  return boolean;
}

std::size_t JsonValue::asSize() const {
  const double n = asNumber();
  // >= 2^53: the double parse may already have rounded the literal, so
  // accepting it would silently alter the client's value — reject loudly.
  if (n < 0 || n != std::floor(n) || n >= 9007199254740992.0) {
    throw std::runtime_error("JSON value is not an exactly-representable non-negative integer");
  }
  return static_cast<std::size_t>(n);
}

std::uint64_t JsonValue::asU64() const {
  const double n = asNumber();
  if (n < 0 || n != std::floor(n) || n >= 9007199254740992.0) {
    throw std::runtime_error("JSON value is not an exactly-representable non-negative integer");
  }
  return static_cast<std::uint64_t>(n);
}

JsonValue parseJson(std::string_view text) {
  return Parser(text).parseDocument();
}

}  // namespace pipesched::io
