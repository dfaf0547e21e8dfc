#include "pipesched/stream/source.hpp"

#include <algorithm>
#include <cctype>
#include <filesystem>
#include <sstream>
#include <stdexcept>

#include "jsonl_request.hpp"
#include "pipesched/io/format.hpp"
#include "pipesched/obs/trace.hpp"

namespace pipesched::stream {

/// The in-place reader's document type, for requestFromDoc.
template <>
struct detail::DocAccess<io::LiteDocument> {
  static std::string_view memberName(const io::LiteMember& member) { return member.name; }
  static io::Instance instanceText(const io::LiteValue& text) {
    const std::string_view body = text.asString();
    return io::readInstanceInPlace(body.data(), body.size());
  }
};

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
  if (timed) detail::recordParse(request, start);
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
  while (std::optional<io::MutableLine> line = lines_.next()) {
    ++lineNo_;
    const std::string_view content(line->data, line->size);
    if (!line->overLimit && content.find_first_not_of(" \t\r") == std::string_view::npos) {
      continue;  // blank
    }
    const bool timed = obs::metricsEnabled() || obs::tracingEnabled();
    const obs::TraceClock::time_point start =
        timed ? obs::TraceClock::now() : obs::TraceClock::time_point{};
    try {
      if (line->overLimit) {
        throw std::runtime_error("line longer than the " + std::to_string(io::kMaxRequestBytes) +
                                 "-byte request line limit");
      }
      const io::LiteDocument* doc = nullptr;
      try {
        doc = &parser_.parse(line->data, line->size);
      } catch (const io::ParseError& e) {
        detail::rethrowLineLocal(e);
      }
      service::Request request = detail::requestFromDoc(*doc, defaults_, lineNo_);
      if (timed) detail::recordParse(request, start);
      return request;
    } catch (const std::exception& e) {
      // Line-local position prefixes were already normalized above;
      // re-anchor to the stream line number only.
      detail::recordParseError(start);
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
