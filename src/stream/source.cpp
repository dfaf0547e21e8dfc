#include "pipesched/stream/source.hpp"

#include <algorithm>
#include <cctype>
#include <filesystem>
#include <sstream>
#include <stdexcept>

#include "pipesched/io/format.hpp"
#include "pipesched/io/json_reader.hpp"
#include "pipesched/obs/trace.hpp"

namespace pipesched::stream {

namespace {

/// Stamps the just-parsed request with its parse wall time and feeds the
/// stage.parse histogram. Callers read the clock only when observability is
/// on (the returned requests otherwise keep parseSeconds == 0).
void recordParse(service::Request& request, obs::TraceClock::time_point start) {
  request.parseSeconds = obs::secondsSince(start);
  if (obs::metricsEnabled()) {
    obs::stageHistogram(obs::Stage::kParse).recordSeconds(request.parseSeconds);
  }
}

/// Errored parse: the line's wall time still belongs in the stage.parse
/// histogram (a dirty corpus must not make parse p99 look better than it
/// is), and the error itself is counted.
void recordParseError(obs::TraceClock::time_point start) {
  if (!obs::metricsEnabled()) return;
  obs::stageHistogram(obs::Stage::kParse).recordSeconds(obs::secondsSince(start));
  static obs::Counter& errors = obs::registry().counter(obs::names::kParseErrors);
  errors.add();
}

workload::ExperimentKind kindFromString(const std::string& text) {
  if (const auto kind = workload::experimentKindFromName(text)) return *kind;
  throw std::runtime_error("unknown experiment kind '" + text + "' (expected E1..E4)");
}

// The request builder below is shared by both readers (tree-walking
// io::JsonValue and zero-copy io::LiteDocument) through these adapters, so
// field validation, defaulting and error classification are identical by
// construction — the point the differential suite then checks end to end.

std::string_view memberName(const io::JsonValue::Member& member) { return member.first; }
std::string_view memberName(const io::LiteMember& member) { return member.name; }

io::Instance parseInstanceText(const io::JsonValue& text) {
  return io::readInstanceFromString(text.asString());
}

io::Instance parseInstanceText(const io::LiteValue& text) {
  const std::string_view body = text.asString();
  return io::readInstanceInPlace(body.data(), body.size());
}

/// Builds the request from one parsed JSONL object (see source.hpp for the
/// line format). `Doc` is io::JsonValue or io::LiteDocument.
template <typename Doc>
service::Request requestFromDoc(const Doc& v, const JsonlDefaults& defaults,
                                std::size_t lineNo) {
  if (!v.isObject()) throw std::runtime_error("request line must be a JSON object");

  static const char* const known[] = {"file",   "text",  "kind",    "stages",
                                      "processors", "seed",  "name",    "points",
                                      "range",  "overlap", "deadline_ms"};
  for (std::size_t i = 0; i < v.members.size(); ++i) {
    const std::string_view name = memberName(v.members[i]);
    if (std::find_if(std::begin(known), std::end(known), [&](const char* k) {
          return name == k;
        }) == std::end(known)) {
      throw std::runtime_error("unknown field '" + std::string(name) + "'");
    }
    // First-match lookup would otherwise silently use the value every
    // standard JSON tool discards ({"stages":4,"stages":8} resolving to 4) —
    // reject repeats outright.
    for (std::size_t j = 0; j < i; ++j) {
      if (memberName(v.members[j]) == name) {
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
          return parseInstanceText(*text);
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

/// Strips the parser's "line 1: " prefix: it saw exactly one line, so the
/// prefix carries no information here. Errors thrown later (e.g. a malformed
/// referenced .psi file) keep their own line numbers, which are
/// file-relative and must not be stripped.
[[noreturn]] void rethrowLineLocal(const io::ParseError& e) {
  std::string message = e.what();
  if (message.rfind("line 1: ", 0) == 0) message.erase(0, 8);
  throw std::runtime_error(message);
}

service::Request requestFromJsonLine(const std::string& line, const JsonlDefaults& defaults,
                                     std::size_t lineNo) {
  const io::JsonValue v = [&] {
    try {
      return io::parseJson(line);
    } catch (const io::ParseError& e) {
      rethrowLineLocal(e);
    }
  }();
  return requestFromDoc(v, defaults, lineNo);
}

service::Request requestFromJsonLineFast(io::LiteParser& parser, const io::MutableLine& line,
                                         const JsonlDefaults& defaults, std::size_t lineNo) {
  const io::LiteDocument* doc = nullptr;
  try {
    doc = &parser.parse(line.data, line.size);
  } catch (const io::ParseError& e) {
    rethrowLineLocal(e);
  }
  return requestFromDoc(*doc, defaults, lineNo);
}

}  // namespace

std::optional<service::Request> VectorSource::next() {
  if (cursor_ >= requests_.size()) return std::nullopt;
  return std::move(requests_[cursor_++]);
}

std::vector<std::string> expandInstancePaths(const std::vector<std::string>& paths) {
  namespace fs = std::filesystem;
  std::vector<std::string> expanded;
  for (const std::string& path : paths) {
    std::error_code ec;
    if (!fs::is_directory(path, ec)) {
      expanded.push_back(path);  // plain file (or missing: the read will say so)
      continue;
    }
    std::vector<std::string> inDir;
    for (const fs::directory_entry& entry : fs::directory_iterator(path)) {
      if (entry.is_regular_file() && entry.path().extension() == ".psi") {
        inDir.push_back(entry.path().string());
      }
    }
    if (inDir.empty()) {
      throw std::runtime_error("no .psi instance files in directory: " + path);
    }
    std::sort(inDir.begin(), inDir.end());
    expanded.insert(expanded.end(), inDir.begin(), inDir.end());
  }
  return expanded;
}

std::optional<service::Request> FileListSource::next() {
  if (cursor_ >= paths_.size()) return std::nullopt;
  const std::string& path = paths_[cursor_++];
  const bool timed = obs::metricsEnabled() || obs::tracingEnabled();
  const obs::TraceClock::time_point start =
      timed ? obs::TraceClock::now() : obs::TraceClock::time_point{};
  const io::Instance instance = io::readInstanceFromFile(path);
  service::Request request{instance.pipeline, instance.platform, model_, sweep_,
                           instance.name.empty() ? path : instance.name};
  if (timed) recordParse(request, start);
  return request;
}

ScenarioSource::ScenarioSource(service::SweepSpec sweep, core::CommModel model)
    : scenarios_(workload::allScenarios()),
      platform_(workload::labCluster()),
      sweep_(sweep),
      model_(model) {}

std::optional<service::Request> ScenarioSource::next() {
  if (cursor_ >= scenarios_.size()) return std::nullopt;
  workload::Scenario& scenario = scenarios_[cursor_++];
  return service::Request{std::move(scenario.pipeline), platform_, model_, sweep_,
                          scenario.name};
}

std::optional<service::Request> GeneratorSource::next() {
  if (produced_ >= spec_.count) return std::nullopt;
  workload::InstancePair pair =
      workload::randomInstance(spec_.kind, spec_.stages, spec_.processors, rng_);
  std::ostringstream name;
  name << workload::experimentName(spec_.kind) << "-n" << spec_.stages << 'p'
       << spec_.processors << '-' << produced_;
  ++produced_;
  return service::Request{std::move(pair.pipeline), std::move(pair.platform), spec_.model,
                          spec_.sweep, name.str()};
}

std::optional<service::Request> JsonlSource::next() {
  return mode_ == JsonlReader::kFast ? nextFast() : nextLegacy();
}

std::optional<service::Request> JsonlSource::nextFast() {
  while (std::optional<io::MutableLine> line = lines_->next()) {
    ++lineNo_;
    const std::string_view content(line->data, line->size);
    if (content.find_first_not_of(" \t\r") == std::string_view::npos) continue;  // blank
    const bool timed = obs::metricsEnabled() || obs::tracingEnabled();
    const obs::TraceClock::time_point start =
        timed ? obs::TraceClock::now() : obs::TraceClock::time_point{};
    try {
      service::Request request = requestFromJsonLineFast(parser_, *line, defaults_, lineNo_);
      if (timed) recordParse(request, start);
      return request;
    } catch (const std::exception& e) {
      // Line-local position prefixes were already normalized inside
      // requestFromJsonLineFast; re-anchor to the stream line number only.
      recordParseError(start);
      if (!onError_) throw io::ParseError(lineNo_, e.what());
      onError_(lineNo_, e.what());
    }
  }
  return std::nullopt;
}

std::optional<service::Request> JsonlSource::nextLegacy() {
  std::string line;
  while (std::getline(*in_, line)) {
    ++lineNo_;
    if (line.find_first_not_of(" \t\r") == std::string::npos) continue;  // blank
    const bool timed = obs::metricsEnabled() || obs::tracingEnabled();
    const obs::TraceClock::time_point start =
        timed ? obs::TraceClock::now() : obs::TraceClock::time_point{};
    try {
      service::Request request = requestFromJsonLine(line, defaults_, lineNo_);
      if (timed) recordParse(request, start);
      return request;
    } catch (const std::exception& e) {
      // Line-local position prefixes were already normalized inside
      // requestFromJsonLine; re-anchor to the stream line number only.
      recordParseError(start);
      if (!onError_) throw io::ParseError(lineNo_, e.what());
      onError_(lineNo_, e.what());
    }
  }
  return std::nullopt;
}

std::optional<service::Request> ChainSource::next() {
  while (cursor_ < parts_.size()) {
    if (std::optional<service::Request> request = parts_[cursor_]->next()) return request;
    ++cursor_;
  }
  return std::nullopt;
}

}  // namespace pipesched::stream
