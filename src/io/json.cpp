#include "pipesched/io/json.hpp"

#include <charconv>
#include <cmath>
#include <ostream>
#include <stdexcept>

#include "pipesched/io/real_format.hpp"

namespace pipesched::io {

std::string jsonEscape(std::string_view text) {
  std::string out;
  out.reserve(text.size());
  StringOutStream stream(out);
  JsonWriter(stream).writeEscaped(text);
  return out;
}

JsonWriter::JsonWriter(std::ostream& out, bool pretty) : out_(&out), pretty_(pretty) {
  stack_.reserve(8);
}

JsonWriter::~JsonWriter() = default;

bool JsonWriter::complete() const noexcept { return rootWritten_ && stack_.empty(); }

void JsonWriter::writeEscaped(std::string_view text) {
  std::size_t run = 0;  // start of the pending run of bytes that need no escape
  for (std::size_t i = 0; i < text.size(); ++i) {
    const char c = text[i];
    const char* escape = nullptr;
    switch (c) {
      case '"': escape = "\\\""; break;
      case '\\': escape = "\\\\"; break;
      case '\n': escape = "\\n"; break;
      case '\r': escape = "\\r"; break;
      case '\t': escape = "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) >= 0x20) continue;
    }
    write(text.substr(run, i - run));
    run = i + 1;
    if (escape != nullptr) {
      write(escape);
    } else {
      static const char* digits = "0123456789abcdef";
      const char code[] = {'\\', 'u', '0', '0', digits[(c >> 4) & 0xF], digits[c & 0xF]};
      write(std::string_view(code, sizeof code));
    }
  }
  write(text.substr(run));
}

void JsonWriter::newlineIndent() {
  if (!pretty_) return;
  out_->put('\n');
  for (std::size_t i = 0; i < stack_.size(); ++i) write("  ");
}

void JsonWriter::beforeValue() {
  if (stack_.empty()) {
    if (rootWritten_) throw std::logic_error("JsonWriter: multiple top-level values");
    rootWritten_ = true;
    return;
  }
  Level& level = stack_.back();
  switch (level.frame) {
    case Frame::kObjectExpectKey:
      throw std::logic_error("JsonWriter: value emitted where an object key is required");
    case Frame::kObjectExpectValue:
      level.frame = Frame::kObjectExpectKey;
      return;  // the key already placed the separator
    case Frame::kArray:
      if (level.hasItems) out_->put(',');
      level.hasItems = true;
      newlineIndent();
      return;
  }
}

void JsonWriter::open(char bracket, Frame frame) {
  beforeValue();
  out_->put(bracket);
  stack_.push_back(Level{frame});
}

void JsonWriter::close(char bracket) {
  const bool had = stack_.back().hasItems;
  stack_.pop_back();
  if (had) newlineIndent();
  out_->put(bracket);
}

JsonWriter& JsonWriter::beginObject() {
  open('{', Frame::kObjectExpectKey);
  return *this;
}

JsonWriter& JsonWriter::endObject() {
  if (stack_.empty() || stack_.back().frame != Frame::kObjectExpectKey) {
    throw std::logic_error("JsonWriter: endObject outside an object (or after a dangling key)");
  }
  close('}');
  return *this;
}

JsonWriter& JsonWriter::beginArray() {
  open('[', Frame::kArray);
  return *this;
}

JsonWriter& JsonWriter::endArray() {
  if (stack_.empty() || stack_.back().frame != Frame::kArray) {
    throw std::logic_error("JsonWriter: endArray outside an array");
  }
  close(']');
  return *this;
}

JsonWriter& JsonWriter::key(std::string_view name) {
  if (stack_.empty() || stack_.back().frame != Frame::kObjectExpectKey) {
    throw std::logic_error("JsonWriter: key outside an object");
  }
  Level& level = stack_.back();
  if (level.hasItems) out_->put(',');
  level.hasItems = true;
  newlineIndent();
  out_->put('"');
  writeEscaped(name);
  write(pretty_ ? "\": " : "\":");
  level.frame = Frame::kObjectExpectValue;
  return *this;
}

JsonWriter& JsonWriter::value(std::string_view text) {
  beforeValue();
  out_->put('"');
  writeEscaped(text);
  out_->put('"');
  return *this;
}

JsonWriter& JsonWriter::value(double number) {
  beforeValue();
  if (!std::isfinite(number)) {
    write("null");
  } else {
    char buf[kRealChars];
    write(std::string_view(buf, static_cast<std::size_t>(formatReal(number, buf) - buf)));
  }
  return *this;
}

namespace {

template <typename Integer>
std::string_view integerText(Integer number, char (&buf)[24]) {
  const char* const end = std::to_chars(buf, buf + sizeof buf, number).ptr;
  return std::string_view(buf, static_cast<std::size_t>(end - buf));
}

}  // namespace

JsonWriter& JsonWriter::value(std::size_t number) {
  beforeValue();
  char buf[24];
  write(integerText(number, buf));
  return *this;
}

JsonWriter& JsonWriter::value(int number) {
  beforeValue();
  char buf[24];
  write(integerText(number, buf));
  return *this;
}

JsonWriter& JsonWriter::value(bool flag) {
  beforeValue();
  write(flag ? "true" : "false");
  return *this;
}

JsonWriter& JsonWriter::null() {
  beforeValue();
  write("null");
  return *this;
}

void writeMappingJson(std::ostream& out, const core::IntervalMapping& mapping,
                      const core::Metrics* metrics, bool pretty) {
  JsonWriter w(out, pretty);
  w.beginObject();
  w.kv("stages", mapping.stageCount());
  w.key("intervals").beginArray();
  for (const core::Assignment& a : mapping.assignments()) {
    w.beginObject();
    w.kv("first", a.interval.first);
    w.kv("last", a.interval.last);
    w.kv("processor", a.processor);
    w.endObject();
  }
  w.endArray();
  if (metrics != nullptr) {
    w.key("metrics").beginObject();
    w.kv("period", metrics->period);
    w.kv("latency", metrics->latency);
    w.kv("bottleneckInterval", metrics->bottleneckInterval);
    w.endObject();
  }
  w.endObject();
  out << '\n';
}

}  // namespace pipesched::io
