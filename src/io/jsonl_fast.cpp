#include "pipesched/io/jsonl_fast.hpp"

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <stdexcept>

#include "pipesched/io/format.hpp"

namespace pipesched::io {

// ---------------------------------------------------------------------------
// BlockLineReader

BlockLineReader::BlockLineReader(std::istream& in, std::size_t blockSize)
    : in_(&in), blockSize_(std::max<std::size_t>(blockSize, 16)) {}

void BlockLineReader::ensureRoom() {
  if (begin_ == end_) begin_ = end_ = scan_ = 0;
  if (buffer_.size() - end_ >= blockSize_) return;
  if (begin_ >= blockSize_) {
    // Reclaim the consumed prefix before growing; only worth the memmove
    // once a whole block has been consumed.
    std::memmove(buffer_.data(), buffer_.data() + begin_, end_ - begin_);
    end_ -= begin_;
    scan_ -= begin_;
    begin_ = 0;
    if (buffer_.size() - end_ >= blockSize_) return;
  }
  // next() stops buffering a line once it passes kMaxRequestBytes, so the
  // pending line here is at most that long plus the unreclaimed prefix
  // (< one block): the cap below always leaves a block of room.
  buffer_.resize(std::min(std::max(buffer_.size() * 2, end_ + blockSize_),
                          kMaxRequestBytes + 2 * blockSize_));
}

bool BlockLineReader::fill() {
  ensureRoom();
  std::streambuf* sb = in_->rdbuf();
  if (sb == nullptr) return false;
  char* dst = buffer_.data() + end_;
  const std::size_t room = buffer_.size() - end_;
  const std::streamsize avail = sb->in_avail();
  if (avail > 0) {
    const std::streamsize want =
        std::min(avail, static_cast<std::streamsize>(room));
    const std::streamsize got = sb->sgetn(dst, want);
    if (got <= 0) return false;
    end_ += static_cast<std::size_t>(got);
    return true;
  }
  // Nothing buffered: block for a single byte instead of a whole block, so an
  // interactive producer (serve over stdin) gets the same line-by-line
  // latency as getline. The read primes the streambuf, so the bulk path
  // above takes over on the next call.
  const int c = sb->sbumpc();
  if (c == std::char_traits<char>::eof()) return false;
  *dst = static_cast<char>(c);
  ++end_;
  return true;
}

std::optional<MutableLine> BlockLineReader::next() {
  for (;;) {
    if (scan_ < end_) {
      void* found = std::memchr(buffer_.data() + scan_, '\n', end_ - scan_);
      if (found != nullptr) {
        char* nl = static_cast<char*>(found);
        const std::size_t nlPos = static_cast<std::size_t>(nl - buffer_.data());
        if (discarding_ || nlPos - begin_ > kMaxRequestBytes) return dropLine(nlPos + 1);
        char* lineStart = buffer_.data() + begin_;
        const std::size_t lineSize = nlPos - begin_;
        *nl = '\0';
        begin_ = nlPos + 1;
        scan_ = begin_;
        return MutableLine{lineStart, lineSize};
      }
      scan_ = end_;
      if (discarding_ || end_ - begin_ > kMaxRequestBytes) {
        // Over the limit and still no newline: drop what is buffered and keep
        // dropping until the line ends (ensureRoom then reuses the buffer
        // from its start).
        discarding_ = true;
        begin_ = end_;
      }
    }
    if (eof_) {
      if (discarding_) return dropLine(end_);
      if (begin_ == end_) return std::nullopt;
      // Final line without a trailing '\n'.
      if (end_ == buffer_.size()) buffer_.resize(end_ + 1);
      buffer_[end_] = '\0';
      MutableLine line{buffer_.data() + begin_, end_ - begin_};
      begin_ = scan_ = end_;
      return line;
    }
    if (!fill()) eof_ = true;
  }
}

MutableLine BlockLineReader::dropLine(std::size_t lineEnd) {
  discarding_ = false;
  begin_ = scan_ = lineEnd;
  return MutableLine{nullptr, 0, /*overLimit=*/true};
}

// ---------------------------------------------------------------------------
// LiteValue / LiteDocument

namespace {

[[noreturn]] void typeError(const char* expected) {
  throw std::runtime_error(std::string("JSON value is not a ") + expected);
}

}  // namespace

std::string_view LiteValue::asString() const {
  if (!isString()) typeError("string");
  return text();
}

double LiteValue::asNumber() const {
  if (!isNumber()) typeError("number");
  return number;
}

bool LiteValue::asBool() const {
  if (!isBool()) typeError("boolean");
  return boolean;
}

std::size_t LiteValue::asSize() const {
  const double n = asNumber();
  // >= 2^53: the double parse may already have rounded the literal, so
  // accepting it would silently alter the client's value — reject loudly.
  if (n < 0 || n != std::floor(n) || n >= 9007199254740992.0) {
    throw std::runtime_error("JSON value is not an exactly-representable non-negative integer");
  }
  return static_cast<std::size_t>(n);
}

std::uint64_t LiteValue::asU64() const {
  const double n = asNumber();
  if (n < 0 || n != std::floor(n) || n >= 9007199254740992.0) {
    throw std::runtime_error("JSON value is not an exactly-representable non-negative integer");
  }
  return static_cast<std::uint64_t>(n);
}

const LiteValue* LiteDocument::find(std::string_view key) const noexcept {
  if (!root.isObject()) return nullptr;
  for (const LiteMember& member : members) {
    if (member.name == key) return &member.value;
  }
  return nullptr;
}

// ---------------------------------------------------------------------------
// LiteParser — every production, check order and message below mirrors the
// reference tree reader's Parser in the pipesched_oracles target; the
// differential suite holds the two together.

void LiteParser::fail(const std::string& message) const {
  // The input is one newline-free line by construction, so the offending
  // character is always on line 1 — same number the tree parser computes.
  throw ParseError(1, message);
}

char LiteParser::peek() const {
  if (atEnd()) fail("unexpected end of input");
  return data_[pos_];
}

char LiteParser::take() {
  const char c = peek();
  ++pos_;
  return c;
}

void LiteParser::expect(char c, const char* what) {
  if (atEnd() || data_[pos_] != c) fail(std::string("expected ") + what);
  ++pos_;
}

void LiteParser::skipWhitespace() {
  while (!atEnd()) {
    const char c = data_[pos_];
    if (c != ' ' && c != '\t' && c != '\n' && c != '\r') break;
    ++pos_;
  }
}

const LiteDocument& LiteParser::parse(char* data, std::size_t size) {
  data_ = data;
  size_ = size;
  pos_ = 0;
  doc_.members.clear();  // arena reuse: capacity survives across lines
  doc_.root = LiteValue{};
  skipWhitespace();
  doc_.root = parseValue(/*topLevel=*/true);
  skipWhitespace();
  if (pos_ != size_) fail("trailing characters after JSON value");
  return doc_;
}

LiteValue LiteParser::parseValue(bool topLevel) {
  switch (peek()) {
    case '{': {
      if (topLevel) {
        parseTopLevelObject();
      } else {
        skipObject();
      }
      LiteValue value;
      value.type = LiteValue::Type::kObject;
      return value;
    }
    case '[': {
      skipArray();
      LiteValue value;
      value.type = LiteValue::Type::kArray;
      return value;
    }
    case '"': {
      const std::string_view text = parseStringInPlace();
      LiteValue value;
      value.type = LiteValue::Type::kString;
      value.textData = const_cast<char*>(text.data());
      value.textSize = text.size();
      return value;
    }
    case 't': {
      if (size_ - pos_ < 4 || std::memcmp(data_ + pos_, "true", 4) != 0) {
        fail("invalid token");
      }
      pos_ += 4;
      LiteValue value;
      value.type = LiteValue::Type::kBool;
      value.boolean = true;
      return value;
    }
    case 'f': {
      if (size_ - pos_ < 5 || std::memcmp(data_ + pos_, "false", 5) != 0) {
        fail("invalid token");
      }
      pos_ += 5;
      LiteValue value;
      value.type = LiteValue::Type::kBool;
      value.boolean = false;
      return value;
    }
    case 'n': {
      if (size_ - pos_ < 4 || std::memcmp(data_ + pos_, "null", 4) != 0) {
        fail("invalid token");
      }
      pos_ += 4;
      return LiteValue{};
    }
    default: return parseNumber();
  }
}

void LiteParser::parseTopLevelObject() {
  expect('{', "'{'");
  skipWhitespace();
  if (!atEnd() && data_[pos_] == '}') {
    ++pos_;
    return;
  }
  for (;;) {
    skipWhitespace();
    if (atEnd() || data_[pos_] != '"') fail("expected object key string");
    const std::string_view key = parseStringInPlace();
    skipWhitespace();
    expect(':', "':' after object key");
    skipWhitespace();
    doc_.members.push_back({key, parseValue(/*topLevel=*/false)});
    skipWhitespace();
    const char c = take();
    if (c == '}') return;
    if (c != ',') fail("expected ',' or '}' in object");
  }
}

// Nested containers: full grammar walk (identical error behavior), but only
// the container's type survives — the request protocol has no nested fields,
// so this is exactly as much as JsonValue::as*() would ever let a caller see.
void LiteParser::skipObject() {
  expect('{', "'{'");
  skipWhitespace();
  if (!atEnd() && data_[pos_] == '}') {
    ++pos_;
    return;
  }
  for (;;) {
    skipWhitespace();
    if (atEnd() || data_[pos_] != '"') fail("expected object key string");
    parseStringInPlace();
    skipWhitespace();
    expect(':', "':' after object key");
    skipWhitespace();
    parseValue(/*topLevel=*/false);
    skipWhitespace();
    const char c = take();
    if (c == '}') return;
    if (c != ',') fail("expected ',' or '}' in object");
  }
}

void LiteParser::skipArray() {
  expect('[', "'['");
  skipWhitespace();
  if (!atEnd() && data_[pos_] == ']') {
    ++pos_;
    return;
  }
  for (;;) {
    skipWhitespace();
    parseValue(/*topLevel=*/false);
    skipWhitespace();
    const char c = take();
    if (c == ']') return;
    if (c != ',') fail("expected ',' or ']' in array");
  }
}

std::string_view LiteParser::parseStringInPlace() {
  expect('"', "'\"'");
  // Decode into the buffer being read: every escape sequence is at least as
  // long as its decoding (\n: 2 -> 1, \uXXXX: 6 -> <= 3, surrogate pair:
  // 12 -> 4), so the write cursor can never pass the read cursor. Until the
  // first escape the "copy" is a self-assignment over the same bytes.
  char* const base = data_ + pos_;
  char* out = base;
  for (;;) {
    if (atEnd()) fail("unterminated string");
    const char c = take();
    if (c == '"') return {base, static_cast<std::size_t>(out - base)};
    if (static_cast<unsigned char>(c) < 0x20) fail("unescaped control character in string");
    if (c != '\\') {
      *out++ = c;
      continue;
    }
    const char esc = take();
    switch (esc) {
      case '"': *out++ = '"'; break;
      case '\\': *out++ = '\\'; break;
      case '/': *out++ = '/'; break;
      case 'b': *out++ = '\b'; break;
      case 'f': *out++ = '\f'; break;
      case 'n': *out++ = '\n'; break;
      case 'r': *out++ = '\r'; break;
      case 't': *out++ = '\t'; break;
      case 'u': out = appendUnicodeEscape(out); break;
      default: fail("invalid escape sequence");
    }
  }
}

unsigned LiteParser::readHex4() {
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

char* LiteParser::appendUnicodeEscape(char* out) {
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
    *out++ = static_cast<char>(code);
  } else if (code < 0x800) {
    *out++ = static_cast<char>(0xC0 | (code >> 6));
    *out++ = static_cast<char>(0x80 | (code & 0x3F));
  } else if (code < 0x10000) {
    *out++ = static_cast<char>(0xE0 | (code >> 12));
    *out++ = static_cast<char>(0x80 | ((code >> 6) & 0x3F));
    *out++ = static_cast<char>(0x80 | (code & 0x3F));
  } else {
    *out++ = static_cast<char>(0xF0 | (code >> 18));
    *out++ = static_cast<char>(0x80 | ((code >> 12) & 0x3F));
    *out++ = static_cast<char>(0x80 | ((code >> 6) & 0x3F));
    *out++ = static_cast<char>(0x80 | (code & 0x3F));
  }
  return out;
}

LiteValue LiteParser::parseNumber() {
  const std::size_t start = pos_;
  if (!atEnd() && data_[pos_] == '-') ++pos_;
  const auto digits = [&] {
    std::size_t n = 0;
    while (!atEnd() && data_[pos_] >= '0' && data_[pos_] <= '9') {
      ++pos_;
      ++n;
    }
    return n;
  };
  if (digits() == 0) {
    pos_ = start;
    fail("invalid token");
  }
  if (!atEnd() && data_[pos_] == '.') {
    ++pos_;
    if (digits() == 0) fail("expected digits after decimal point");
  }
  if (!atEnd() && (data_[pos_] == 'e' || data_[pos_] == 'E')) {
    ++pos_;
    if (!atEnd() && (data_[pos_] == '+' || data_[pos_] == '-')) ++pos_;
    if (digits() == 0) fail("expected digits in exponent");
  }
  // The same strtod the tree parser runs on its copied-out token, pointed at
  // the token in place. strtod needs a terminator: at end of line the reader
  // guarantees data_[size_] == '\0'; mid-line, NUL-swap the byte after the
  // token for the duration of the call.
  const std::size_t tokenEnd = pos_;
  const bool swap = tokenEnd < size_;
  const char saved = swap ? data_[tokenEnd] : '\0';
  if (swap) data_[tokenEnd] = '\0';
  errno = 0;
  char* end = nullptr;
  const double parsed = std::strtod(data_ + start, &end);
  if (swap) data_[tokenEnd] = saved;
  // ERANGE underflow (subnormal/zero result, e.g. 1e-310) is a valid JSON
  // number — only overflow to +/-HUGE_VAL is an error.
  const bool overflow = errno == ERANGE && (parsed == HUGE_VAL || parsed == -HUGE_VAL);
  if (end != data_ + tokenEnd || overflow) {
    pos_ = start;
    fail("number out of range");
  }
  LiteValue value;
  value.type = LiteValue::Type::kNumber;
  value.number = parsed;
  return value;
}

}  // namespace pipesched::io
