// Minimal streaming JSON writer plus emitters for the core model types.
// Output-only by design: the text format in format.hpp is the ingestion
// path; JSON serves dashboards, plotting scripts and log pipelines.
#pragma once

#include <ostream>
#include <streambuf>
#include <string>
#include <string_view>
#include <vector>

#include "pipesched/core/evaluation.hpp"
#include "pipesched/core/mapping.hpp"

namespace pipesched::io {

/// Streaming JSON writer with automatic comma placement and optional
/// pretty-printing. Usage:
///
///   JsonWriter w(out, /*pretty=*/true);
///   w.beginObject();
///   w.key("n").value(3);
///   w.key("work").beginArray().value(1.5).value(2.0).endArray();
///   w.endObject();
///
/// Keys and string values are std::string_view, and every byte goes
/// straight into the stream: escaping, numbers and reals are formatted in
/// place with no temporary string.
///
/// Structural misuse (value without key inside an object, unbalanced
/// begin/end) throws std::logic_error — the writer is meant to make emitter
/// bugs loud in tests, not to silently produce invalid JSON.
class JsonWriter {
 public:
  explicit JsonWriter(std::ostream& out, bool pretty = false);
  ~JsonWriter();

  JsonWriter(const JsonWriter&) = delete;
  JsonWriter& operator=(const JsonWriter&) = delete;

  JsonWriter& beginObject();
  JsonWriter& endObject();
  JsonWriter& beginArray();
  JsonWriter& endArray();

  /// Emits an object key; must be followed by exactly one value/container.
  JsonWriter& key(std::string_view name);

  JsonWriter& value(std::string_view text);
  JsonWriter& value(const char* text) { return value(std::string_view(text)); }
  JsonWriter& value(double number);  ///< non-finite values are emitted as null
  JsonWriter& value(std::size_t number);
  JsonWriter& value(int number);
  JsonWriter& value(bool flag);
  JsonWriter& null();

  /// Convenience: key + scalar value.
  template <typename T>
  JsonWriter& kv(std::string_view name, const T& v) {
    key(name);
    return value(v);
  }

  /// True once the single top-level value is complete.
  [[nodiscard]] bool complete() const noexcept;

 private:
  friend std::string jsonEscape(std::string_view text);

  enum class Frame { kObjectExpectKey, kObjectExpectValue, kArray };
  struct Level {
    Frame frame;
    bool hasItems = false;
  };

  void beforeValue();
  void newlineIndent();
  void open(char bracket, Frame frame);
  void close(char bracket);
  /// The one escaping path: `text` JSON-escaped, without the quotes.
  void writeEscaped(std::string_view text);
  void write(std::string_view bytes) {
    out_->write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }

  std::ostream* out_;
  bool pretty_;
  bool rootWritten_ = false;
  std::vector<Level> stack_;
};

/// std::streambuf appending into a caller-owned std::string. The warm-path
/// emitters build every outcome line through one of these over a *reused*
/// string (clear() keeps capacity), so steady-state emission allocates
/// nothing — unlike std::ostringstream, which buys a fresh buffer per
/// instance.
class StringOutBuf final : public std::streambuf {
 public:
  explicit StringOutBuf(std::string& target) : target_(&target) {}

 protected:
  int_type overflow(int_type ch) override {
    if (!traits_type::eq_int_type(ch, traits_type::eof())) {
      target_->push_back(traits_type::to_char_type(ch));
    }
    return ch;
  }

  std::streamsize xsputn(const char* s, std::streamsize n) override {
    target_->append(s, static_cast<std::size_t>(n));
    return n;
  }

 private:
  std::string* target_;
};

/// std::ostream over a StringOutBuf: `StringOutStream out(buffer);` then
/// write as usual — bytes land appended to `buffer` with no intermediate
/// copy or flush step.
class StringOutStream final : public std::ostream {
 public:
  explicit StringOutStream(std::string& target) : std::ostream(nullptr), buf_(target) {
    rdbuf(&buf_);
  }

 private:
  StringOutBuf buf_;
};

/// {"stages": n, "intervals": [{"first":..,"last":..,"processor":..}, ...],
///  "metrics": {"period":..,"latency":..}}  (metrics omitted when null)
void writeMappingJson(std::ostream& out, const core::IntervalMapping& mapping,
                      const core::Metrics* metrics = nullptr, bool pretty = true);

/// JSON string escaping, without the quotes (exposed for tests and other
/// emitters).
[[nodiscard]] std::string jsonEscape(std::string_view text);

}  // namespace pipesched::io
