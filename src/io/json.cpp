#include "pipesched/io/json.hpp"

#include <cmath>
#include <cstdio>
#include <ostream>
#include <stdexcept>

#include "pipesched/io/real_format.hpp"

namespace pipesched::io {

std::string jsonEscape(const std::string& text) {
  std::string out;
  out.reserve(text.size() + 2);
  for (const char c : text) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out.push_back(c);
        }
    }
  }
  return out;
}

JsonWriter::JsonWriter(std::ostream& out, bool pretty) : out_(&out), pretty_(pretty) {}

JsonWriter::~JsonWriter() = default;

bool JsonWriter::complete() const noexcept { return rootWritten_ && stack_.empty(); }

void JsonWriter::newlineIndent() {
  if (!pretty_) return;
  *out_ << '\n';
  for (std::size_t i = 0; i < stack_.size(); ++i) *out_ << "  ";
}

void JsonWriter::beforeValue() {
  if (stack_.empty()) {
    if (rootWritten_) throw std::logic_error("JsonWriter: multiple top-level values");
    return;
  }
  switch (stack_.back()) {
    case Frame::kObjectExpectKey:
      throw std::logic_error("JsonWriter: value emitted where an object key is required");
    case Frame::kObjectExpectValue:
      stack_.back() = Frame::kObjectExpectKey;
      return;  // the key already placed the separator
    case Frame::kArray:
      if (hasItems_.back()) *out_ << ',';
      newlineIndent();
      hasItems_.back() = true;
      return;
  }
}

JsonWriter& JsonWriter::beginObject() {
  beforeValue();
  *out_ << '{';
  stack_.push_back(Frame::kObjectExpectKey);
  hasItems_.push_back(false);
  rootWritten_ = true;
  return *this;
}

JsonWriter& JsonWriter::endObject() {
  if (stack_.empty() || stack_.back() != Frame::kObjectExpectKey) {
    throw std::logic_error("JsonWriter: endObject outside an object (or after a dangling key)");
  }
  const bool had = hasItems_.back();
  stack_.pop_back();
  hasItems_.pop_back();
  if (had) newlineIndent();
  *out_ << '}';
  return *this;
}

JsonWriter& JsonWriter::beginArray() {
  beforeValue();
  *out_ << '[';
  stack_.push_back(Frame::kArray);
  hasItems_.push_back(false);
  rootWritten_ = true;
  return *this;
}

JsonWriter& JsonWriter::endArray() {
  if (stack_.empty() || stack_.back() != Frame::kArray) {
    throw std::logic_error("JsonWriter: endArray outside an array");
  }
  const bool had = hasItems_.back();
  stack_.pop_back();
  hasItems_.pop_back();
  if (had) newlineIndent();
  *out_ << ']';
  return *this;
}

JsonWriter& JsonWriter::key(const std::string& name) {
  if (stack_.empty() || stack_.back() != Frame::kObjectExpectKey) {
    throw std::logic_error("JsonWriter: key outside an object");
  }
  if (hasItems_.back()) *out_ << ',';
  newlineIndent();
  hasItems_.back() = true;
  *out_ << '"' << jsonEscape(name) << '"' << (pretty_ ? ": " : ":");
  stack_.back() = Frame::kObjectExpectValue;
  return *this;
}

JsonWriter& JsonWriter::value(const std::string& text) {
  beforeValue();
  *out_ << '"' << jsonEscape(text) << '"';
  rootWritten_ = true;
  return *this;
}

JsonWriter& JsonWriter::value(const char* text) { return value(std::string(text)); }

JsonWriter& JsonWriter::value(double number) {
  beforeValue();
  if (!std::isfinite(number)) {
    *out_ << "null";
  } else {
    *out_ << formatReal(number);
  }
  rootWritten_ = true;
  return *this;
}

JsonWriter& JsonWriter::value(std::size_t number) {
  beforeValue();
  *out_ << number;
  rootWritten_ = true;
  return *this;
}

JsonWriter& JsonWriter::value(int number) {
  beforeValue();
  *out_ << number;
  rootWritten_ = true;
  return *this;
}

JsonWriter& JsonWriter::value(bool flag) {
  beforeValue();
  *out_ << (flag ? "true" : "false");
  rootWritten_ = true;
  return *this;
}

JsonWriter& JsonWriter::null() {
  beforeValue();
  *out_ << "null";
  rootWritten_ = true;
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
