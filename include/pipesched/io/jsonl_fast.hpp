// Zero-copy warm-path ingestion: the JSONL request protocol's reader.
//
// Three pieces, composed by stream::JsonlSource:
//
//  * BlockLineReader — replaces the per-line `std::getline` + `std::string`
//    churn with one large reused read buffer. Lines are carved out of the
//    buffer as *mutable* NUL-terminated spans; the buffer is recycled as the
//    stream advances, so a million-line corpus costs a handful of
//    allocations total. Bulk-copies whatever the stream has buffered
//    (`in_avail` + `sgetn`) and falls back to a single blocking `sbumpc`
//    only when nothing is available — interactive `serve` stdin keeps its
//    line-by-line latency, file and string streams ingest at memory speed.
//    A line longer than kMaxRequestBytes is discarded through its newline
//    and reported as over the limit, so the buffer stays bounded whatever
//    the stream holds.
//
//  * LiteParser — an in-place JSON tokenizer over a mutable line span.
//    Strings become string_views into the buffer (escape sequences are
//    decoded in place: every escape is at least as long as its decoding, so
//    the write cursor never passes the read cursor); numbers are parsed by
//    the same strtod the tree reader uses, NUL-swapping the token boundary
//    instead of copying the token out. Only the scalars of the top-level
//    object are materialized — nested containers are syntax-validated and
//    skipped, because the request protocol has no nested fields (accessing
//    one as a scalar throws the same type error the tree reader would).
//    Grammar, error messages and number semantics deliberately mirror the
//    tree-building reference reader (test- and bench-only, in the
//    pipesched_oracles target) token for token; the differential suite in
//    tests/io/test_jsonl_fast.cpp pins the equivalence.
//
//  * io::readInstanceInPlace (format.hpp) — the same idiom for the inline
//    "text" instance payload, parsed straight out of the line buffer.
//
// A LiteDocument is a *view*: it borrows the line buffer it was parsed from
// and is invalidated by the next parse() or reader pull.
#pragma once

#include <cstddef>
#include <istream>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace pipesched::io {

/// The largest client request accepted in one piece, 16 MiB: one JSONL line
/// (BlockLineReader) and one HTTP request body (net::HttpParser).
inline constexpr std::size_t kMaxRequestBytes = std::size_t{16} << 20;

/// One line carved from the reader's buffer: `data[size] == '\0'`, and the
/// bytes are writable (the in-place parser decodes escapes into them).
struct MutableLine {
  char* data = nullptr;
  std::size_t size = 0;
  /// The line was longer than kMaxRequestBytes. Its bytes were discarded, so
  /// data is null and size is 0.
  bool overLimit = false;
};

/// Block-reading line splitter over one reused buffer. Not seekable, not
/// thread-safe; one instance per stream, pulled serially like a Source.
class BlockLineReader {
 public:
  explicit BlockLineReader(std::istream& in, std::size_t blockSize = 64 * 1024);

  /// Next line without its '\n' (a trailing '\r' is kept, exactly like
  /// std::getline), NUL-terminated in place; nullopt at end of stream.
  /// The span is valid until the next call. A line longer than
  /// kMaxRequestBytes comes back as overLimit, consumed through its '\n'.
  [[nodiscard]] std::optional<MutableLine> next();

 private:
  /// Appends more bytes after end_; returns false at end of stream.
  bool fill();
  void ensureRoom();
  /// Ends the over-limit line being read at `lineEnd` (one past its '\n',
  /// or the end of the stream) and returns it as overLimit.
  MutableLine dropLine(std::size_t lineEnd);

  std::istream* in_;
  std::vector<char> buffer_;
  std::size_t blockSize_;
  std::size_t begin_ = 0;  ///< start of the unconsumed region
  std::size_t end_ = 0;    ///< end of the valid region
  std::size_t scan_ = 0;   ///< newline scan resumes here (never rescan)
  bool eof_ = false;
  bool discarding_ = false;  ///< inside an over-limit line, dropping bytes
};

/// One parsed value. Scalars carry their payload; containers carry only
/// their type (see the header comment — the protocol has no nested fields).
struct LiteValue {
  enum class Type : unsigned char { kNull, kBool, kNumber, kString, kArray, kObject };

  Type type = Type::kNull;
  bool boolean = false;
  double number = 0;
  char* textData = nullptr;  ///< kString payload, decoded in the line buffer
  std::size_t textSize = 0;

  [[nodiscard]] bool isNull() const noexcept { return type == Type::kNull; }
  [[nodiscard]] bool isBool() const noexcept { return type == Type::kBool; }
  [[nodiscard]] bool isNumber() const noexcept { return type == Type::kNumber; }
  [[nodiscard]] bool isString() const noexcept { return type == Type::kString; }
  [[nodiscard]] bool isArray() const noexcept { return type == Type::kArray; }
  [[nodiscard]] bool isObject() const noexcept { return type == Type::kObject; }

  [[nodiscard]] std::string_view text() const noexcept { return {textData, textSize}; }

  /// Checked accessors; identical error wording to io::JsonValue.
  [[nodiscard]] std::string_view asString() const;
  [[nodiscard]] double asNumber() const;
  [[nodiscard]] bool asBool() const;
  [[nodiscard]] std::size_t asSize() const;
  [[nodiscard]] std::uint64_t asU64() const;
};

struct LiteMember {
  std::string_view name;
  LiteValue value;
};

/// Parsed view of one line: the root value, plus — when the root is an
/// object — its members in input order. Borrowed storage throughout.
struct LiteDocument {
  LiteValue root;
  std::vector<LiteMember> members;

  [[nodiscard]] bool isObject() const noexcept { return root.isObject(); }

  /// First member named `key`, or nullptr (also when the root is not an
  /// object) — same contract as JsonValue::find.
  [[nodiscard]] const LiteValue* find(std::string_view key) const noexcept;
};

/// Reusable in-place parser: one instance per source, member arena recycled
/// across lines. parse() throws io::ParseError on malformed input with the
/// same messages as the reference tree reader (line number always 1 — the
/// input is one line by construction).
class LiteParser {
 public:
  /// Parses the mutable text [data, data+size); requires data[size] == '\0'
  /// (BlockLineReader guarantees it; std::string satisfies it for tests).
  /// The returned view is valid until the next parse() or buffer reuse.
  const LiteDocument& parse(char* data, std::size_t size);

 private:
  [[noreturn]] void fail(const std::string& message) const;
  [[nodiscard]] bool atEnd() const noexcept { return pos_ >= size_; }
  [[nodiscard]] char peek() const;
  char take();
  void expect(char c, const char* what);
  void skipWhitespace();

  LiteValue parseValue(bool topLevel);
  void parseTopLevelObject();
  void skipObject();
  void skipArray();
  std::string_view parseStringInPlace();
  unsigned readHex4();
  char* appendUnicodeEscape(char* out);
  LiteValue parseNumber();

  char* data_ = nullptr;
  std::size_t size_ = 0;
  std::size_t pos_ = 0;
  LiteDocument doc_;
};

}  // namespace pipesched::io
