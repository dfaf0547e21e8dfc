#include "pipesched/oracles/legacy_jsonl_source.hpp"

#include <string>
#include <string_view>

#include "pipesched/io/format.hpp"
#include "pipesched/oracles/json_reader.hpp"
#include "stream/jsonl_request.hpp"

namespace pipesched::stream::detail {

/// The tree reader's document type, for requestFromDoc.
template <>
struct DocAccess<io::JsonValue> {
  static std::string_view memberName(const io::JsonValue::Member& member) {
    return member.first;
  }
  static io::Instance instanceText(const io::JsonValue& text) {
    return io::readInstanceFromString(text.asString());
  }
};

}  // namespace pipesched::stream::detail

namespace pipesched::oracles {

namespace {

service::Request requestFromJsonLine(const std::string& line,
                                     const stream::JsonlDefaults& defaults,
                                     std::size_t lineNo) {
  const io::JsonValue v = [&] {
    try {
      return io::parseJson(line);
    } catch (const io::ParseError& e) {
      stream::detail::rethrowLineLocal(e);
    }
  }();
  return stream::detail::requestFromDoc(v, defaults, lineNo);
}

}  // namespace

std::optional<service::Request> LegacyJsonlSource::next() {
  std::string line;
  while (std::getline(*in_, line)) {
    ++lineNo_;
    if (line.find_first_not_of(" \t\r") == std::string::npos) continue;  // blank
    const bool timed = obs::metricsEnabled() || obs::tracingEnabled();
    const obs::TraceClock::time_point start =
        timed ? obs::TraceClock::now() : obs::TraceClock::time_point{};
    try {
      service::Request request = requestFromJsonLine(line, defaults_, lineNo_);
      if (timed) stream::detail::recordParse(request, start);
      return request;
    } catch (const std::exception& e) {
      // Line-local position prefixes were already normalized inside
      // requestFromJsonLine; re-anchor to the stream line number only.
      stream::detail::recordParseError(start);
      if (!onError_) throw io::ParseError(lineNo_, e.what());
      onError_(lineNo_, e.what());
    }
  }
  return std::nullopt;
}

}  // namespace pipesched::oracles
