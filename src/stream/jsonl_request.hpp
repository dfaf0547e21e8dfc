// Private to the library and pipesched_oracles: the JSONL request builder and
// parse accounting shared by stream::JsonlSource (in-place io::LiteDocument)
// and the test/bench-only oracles::LegacyJsonlSource (io::JsonValue tree).
// One template serves both readers, so field validation, defaulting and
// error classification are identical by construction; the differential
// suite in tests/io/test_jsonl_fast.cpp then checks it end to end.
#pragma once

#include <algorithm>
#include <cstdint>
#include <iterator>
#include <sstream>
#include <stdexcept>
#include <string>
#include <string_view>

#include "pipesched/io/format.hpp"
#include "pipesched/obs/metrics.hpp"
#include "pipesched/obs/trace.hpp"
#include "pipesched/service/request.hpp"
#include "pipesched/stream/source.hpp"
#include "pipesched/workload/generator.hpp"

namespace pipesched::stream::detail {

/// Stamps the just-parsed request with its parse wall time and feeds the
/// stage.parse histogram. Callers read the clock only when observability is
/// on (the returned requests otherwise keep parseSeconds == 0).
inline void recordParse(service::Request& request, obs::TraceClock::time_point start) {
  request.parseSeconds = obs::secondsSince(start);
  if (obs::metricsEnabled()) {
    obs::stageHistogram(obs::Stage::kParse).recordSeconds(request.parseSeconds);
  }
}

/// Errored parse: the line's wall time still belongs in the stage.parse
/// histogram (a dirty corpus must not make parse p99 look better than it
/// is), and the error itself is counted.
inline void recordParseError(obs::TraceClock::time_point start) {
  if (!obs::metricsEnabled()) return;
  obs::stageHistogram(obs::Stage::kParse).recordSeconds(obs::secondsSince(start));
  static obs::Counter& errors = obs::registry().counter(obs::names::kParseErrors);
  errors.add();
}

/// Strips the parser's "line 1: " prefix: it saw exactly one line, so the
/// prefix carries no information here. Errors thrown later (e.g. a malformed
/// referenced .psi file) keep their own line numbers, which are
/// file-relative and must not be stripped.
[[noreturn]] inline void rethrowLineLocal(const io::ParseError& e) {
  std::string message = e.what();
  if (message.rfind("line 1: ", 0) == 0) message.erase(0, 8);
  throw std::runtime_error(message);
}

inline workload::ExperimentKind kindFromString(const std::string& text) {
  if (const auto kind = workload::experimentKindFromName(text)) return *kind;
  throw std::runtime_error("unknown experiment kind '" + text + "' (expected E1..E4)");
}

/// How requestFromDoc reads one document type: `memberName(member)` and
/// `instanceText(value)` (the inline "text" payload parsed to an instance).
/// Specialized next to each reader.
template <typename Doc>
struct DocAccess;

/// Builds the request from one parsed JSONL object (see source.hpp for the
/// line format).
template <typename Doc>
service::Request requestFromDoc(const Doc& v, const JsonlDefaults& defaults,
                                std::size_t lineNo) {
  using Access = DocAccess<Doc>;
  if (!v.isObject()) throw std::runtime_error("request line must be a JSON object");

  static const char* const known[] = {"file",   "text",  "kind",    "stages",
                                      "processors", "seed",  "name",    "points",
                                      "range",  "overlap", "deadline_ms"};
  for (std::size_t i = 0; i < v.members.size(); ++i) {
    const std::string_view name = Access::memberName(v.members[i]);
    if (std::find_if(std::begin(known), std::end(known), [&](const char* k) {
          return name == k;
        }) == std::end(known)) {
      throw std::runtime_error("unknown field '" + std::string(name) + "'");
    }
    // First-match lookup would otherwise silently use the value every
    // standard JSON tool discards ({"stages":4,"stages":8} resolving to 4) —
    // reject repeats outright.
    for (std::size_t j = 0; j < i; ++j) {
      if (Access::memberName(v.members[j]) == name) {
        throw std::runtime_error("duplicate field '" + std::string(name) + "'");
      }
    }
  }

  const auto* file = v.find("file");
  const auto* text = v.find("text");
  const auto* kind = v.find("kind");
  const int sources = (file != nullptr) + (text != nullptr) + (kind != nullptr);
  if (sources != 1) {
    throw std::runtime_error("exactly one of \"file\", \"text\", \"kind\" is required");
  }
  if (kind == nullptr) {
    // Generator knobs on a file/text line would be silently meaningless —
    // reject them so a client cannot believe it re-seeded a file instance.
    for (const char* generatorOnly : {"stages", "processors", "seed"}) {
      if (v.find(generatorOnly) != nullptr) {
        throw std::runtime_error(std::string("field '") + generatorOnly +
                                 "' only applies to \"kind\" lines");
      }
    }
  }

  // With a "name" member present, the default name below is either
  // overwritten by the override or the whole request is discarded when the
  // override turns out not to be a string — skip composing it either way.
  const bool nameOverridden = v.find("name") != nullptr;

  service::Request request = [&]() -> service::Request {
    if (file != nullptr) {
      const std::string path(file->asString());
      io::Instance instance = [&] {
        try {
          return io::readInstanceFromFile(path);
        } catch (const std::exception& e) {
          // Anchor the failure to the referenced file: its parse errors carry
          // file-relative line numbers that would otherwise read as positions
          // in the JSONL stream.
          throw std::runtime_error("file '" + path + "': " + e.what());
        }
      }();
      std::string name;
      if (!nameOverridden) name = instance.name.empty() ? path : std::move(instance.name);
      return {std::move(instance.pipeline), std::move(instance.platform), defaults.model,
              defaults.sweep, std::move(name)};
    }
    if (text != nullptr) {
      io::Instance instance = [&] {
        try {
          return Access::instanceText(*text);
        } catch (const std::exception& e) {
          throw std::runtime_error(std::string("inline instance text: ") + e.what());
        }
      }();
      std::string name;
      if (!nameOverridden) {
        name = instance.name.empty() ? "line-" + std::to_string(lineNo)
                                     : std::move(instance.name);
      }
      return {std::move(instance.pipeline), std::move(instance.platform), defaults.model,
              defaults.sweep, std::move(name)};
    }
    const workload::ExperimentKind k = kindFromString(std::string(kind->asString()));
    const auto* stages = v.find("stages");
    const auto* processors = v.find("processors");
    if (stages == nullptr || processors == nullptr) {
      throw std::runtime_error("\"kind\" lines require \"stages\" and \"processors\"");
    }
    const std::size_t n = stages->asSize();
    const std::size_t p = processors->asSize();
    const auto* seed = v.find("seed");
    const std::uint64_t s = seed != nullptr ? seed->asU64() : 20070628ull;
    workload::Rng rng(s);
    workload::InstancePair pair = workload::randomInstance(k, n, p, rng);
    std::string name;
    if (!nameOverridden) {
      std::ostringstream composed;
      composed << workload::experimentName(k) << "-n" << n << 'p' << p << "-s" << s;
      name = std::move(composed).str();
    }
    return {std::move(pair.pipeline), std::move(pair.platform), defaults.model,
            defaults.sweep, std::move(name)};
  }();

  if (const auto* name = v.find("name")) request.name = std::string(name->asString());
  if (const auto* points = v.find("points")) request.sweep.points = points->asSize();
  if (const auto* range = v.find("range")) {
    request.sweep.range = static_cast<Real>(range->asNumber());
  }
  if (const auto* overlap = v.find("overlap")) {
    request.model =
        overlap->asBool() ? core::CommModel::kOverlapped : core::CommModel::kSequential;
  }
  // Deadlines anchor at parse time: queue wait counts against them. An
  // explicit "deadline_ms" (0 allowed — it disables the default) overrides
  // the source-wide default.
  double deadlineMs = defaults.deadlineMs;
  if (const auto* deadline = v.find("deadline_ms")) {
    deadlineMs = deadline->asNumber();
    if (deadlineMs < 0) {
      throw std::runtime_error("\"deadline_ms\" must be >= 0");
    }
  }
  request.deadline = service::Deadline::in(deadlineMs);
  request.sourceLine = lineNo;
  return request;
}

}  // namespace pipesched::stream::detail
