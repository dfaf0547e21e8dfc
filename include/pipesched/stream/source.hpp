// Request sources for the streaming engine: lazy, pull-based producers of
// service::Request.
//
// The contract that makes streaming bound memory: a Source materializes one
// request per next() call and retains nothing afterwards. The engine pulls
// only when it has window space (queue capacity + workers), so a terabyte of
// instance files on disk never becomes a terabyte of pipelines in memory.
//
// Implementations here cover the service's ingestion shapes:
//   * VectorSource     — in-memory (tests, adapters);
//   * FileListSource   — instance files read one per pull (directories are
//                        expanded up front via expandInstancePaths — names
//                        only, not contents);
//   * ScenarioSource   — the named realistic scenarios on the lab cluster;
//   * GeneratorSource  — synthetic E1..E4 suites, generated on demand;
//   * JsonlSource      — one JSON request object per line (the `serve`
//                        protocol; see the JSONL REQUEST LINES comment);
//   * ChainSource      — concatenation of sources.
//
// Sources are pulled serially (the engine's pump is single-threaded); they
// are not required to be thread-safe.
#pragma once

#include <functional>
#include <istream>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "pipesched/io/jsonl_fast.hpp"
#include "pipesched/service/request.hpp"
#include "pipesched/workload/generator.hpp"
#include "pipesched/workload/scenarios.hpp"

namespace pipesched::stream {

class Source {
 public:
  virtual ~Source() = default;

  /// The next request, or nullopt at end of stream. May throw (e.g. an
  /// unreadable file) — the engine drains in-flight work, then propagates.
  [[nodiscard]] virtual std::optional<service::Request> next() = 0;
};

/// In-memory source; hands out the requests it was built with, in order.
class VectorSource : public Source {
 public:
  explicit VectorSource(std::vector<service::Request> requests)
      : requests_(std::move(requests)) {}

  [[nodiscard]] std::optional<service::Request> next() override;

 private:
  std::vector<service::Request> requests_;
  std::size_t cursor_ = 0;
};

/// Expands a mixed list of instance-file paths and directories into a flat
/// file list: files pass through untouched, each directory contributes its
/// regular "*.psi" files in lexicographic order (non-recursive). A directory
/// without any .psi file is an error (a typo'd path must not silently solve
/// nothing). No file contents are read.
[[nodiscard]] std::vector<std::string> expandInstancePaths(
    const std::vector<std::string>& paths);

/// Reads one instance file per pull (io::readInstanceFromFile). The request
/// name is the file's `name` line, falling back to the path.
class FileListSource : public Source {
 public:
  FileListSource(std::vector<std::string> paths, service::SweepSpec sweep,
                 core::CommModel model)
      : paths_(std::move(paths)), sweep_(sweep), model_(model) {}

  [[nodiscard]] std::optional<service::Request> next() override;

 private:
  std::vector<std::string> paths_;
  service::SweepSpec sweep_;
  core::CommModel model_;
  std::size_t cursor_ = 0;
};

/// The named realistic scenarios (workload::allScenarios) on the lab cluster.
class ScenarioSource : public Source {
 public:
  ScenarioSource(service::SweepSpec sweep, core::CommModel model);

  [[nodiscard]] std::optional<service::Request> next() override;

 private:
  std::vector<workload::Scenario> scenarios_;
  core::Platform platform_;
  service::SweepSpec sweep_;
  core::CommModel model_;
  std::size_t cursor_ = 0;
};

/// Synthetic suite: `count` random instances of one experiment regime,
/// generated lazily from a deterministic seed. Names match the `batch`
/// command's scheme ("E3-n6p4-0"), so stream and batch outputs line up.
class GeneratorSource : public Source {
 public:
  struct Spec {
    workload::ExperimentKind kind = workload::ExperimentKind::kE1BalancedHomComm;
    std::size_t count = 10;
    std::size_t stages = 10;
    std::size_t processors = 10;
    std::uint64_t seed = 20070628;
    service::SweepSpec sweep;
    core::CommModel model = core::CommModel::kSequential;
  };

  explicit GeneratorSource(const Spec& spec) : spec_(spec), rng_(spec.seed) {}

  [[nodiscard]] std::optional<service::Request> next() override;

 private:
  Spec spec_;
  workload::Rng rng_;
  std::size_t produced_ = 0;
};

/// Defaults applied to JSONL request lines that do not override them.
struct JsonlDefaults {
  service::SweepSpec sweep;
  core::CommModel model = core::CommModel::kSequential;
  /// Default per-request deadline in milliseconds (0 = none). Stamped as an
  /// absolute deadline at parse time; a line's own "deadline_ms" overrides.
  double deadlineMs = 0;
};

// JSONL REQUEST LINES — one JSON object per line; blank lines are skipped.
//
//   {"file": "app.psi"}                         instance from a file
//   {"text": "pipesched-instance v1\n..."}      inline instance text
//   {"kind": "E2", "stages": 8, "processors": 5, "seed": 7}
//                                               generated instance
//
// Exactly one of file/text/kind per line. Optional on any line:
//   "name" (display label), "points"/"range" (sweep overrides),
//   "overlap" (bool comm-model override), "deadline_ms" (completion
//   deadline in milliseconds from parse time, >= 0; 0 disables the
//   configured default). Unknown and duplicate fields are errors, and so is
//   a line longer than io::kMaxRequestBytes: it is discarded through its
//   newline without being buffered.
class JsonlSource : public Source {
 public:
  /// Called for a malformed line with its 1-based number; the line is then
  /// skipped. Without a handler, malformed lines throw io::ParseError.
  using ErrorHandler = std::function<void(std::size_t line, const std::string& message)>;

  JsonlSource(std::istream& in, JsonlDefaults defaults = {}, ErrorHandler onError = {})
      : defaults_(std::move(defaults)), onError_(std::move(onError)), lines_(in) {}

  /// Owning overload (e.g. an ifstream the caller opened for us).
  JsonlSource(std::unique_ptr<std::istream> in, JsonlDefaults defaults = {},
              ErrorHandler onError = {})
      : owned_(std::move(in)),
        defaults_(std::move(defaults)),
        onError_(std::move(onError)),
        lines_(*owned_) {}

  [[nodiscard]] std::optional<service::Request> next() override;

  /// Lines consumed so far (including skipped/blank ones).
  [[nodiscard]] std::size_t linesRead() const noexcept { return lineNo_; }

 private:
  std::unique_ptr<std::istream> owned_;
  JsonlDefaults defaults_;
  ErrorHandler onError_;
  io::BlockLineReader lines_;
  io::LiteParser parser_;  ///< arena reused per line
  std::size_t lineNo_ = 0;
};

/// Concatenates sources: drains each part fully before moving to the next.
class ChainSource : public Source {
 public:
  explicit ChainSource(std::vector<std::unique_ptr<Source>> parts)
      : parts_(std::move(parts)) {}

  [[nodiscard]] std::optional<service::Request> next() override;

 private:
  std::vector<std::unique_ptr<Source>> parts_;
  std::size_t cursor_ = 0;
};

}  // namespace pipesched::stream
