// Outcome sinks for the streaming engine: incremental, ordered consumers of
// solved requests.
//
// The engine calls emit() exactly once per request, in input order, as soon
// as the outcome's turn comes up (head-of-line completion) — not when the
// whole stream is done, and not when the next request is pulled. A sink
// therefore sees results while later requests are still being solved or
// have not even arrived, which is what lets `pipesched serve` answer line 1
// while its client is still thinking about line 2. emit() calls are
// serialized, in index order — each returns before the next begins — but
// may come from the pump thread or from whichever scheduler worker completed
// the head of the line; sinks need not be thread-safe, only thread-agnostic.
#pragma once

#include <cstddef>
#include <mutex>
#include <optional>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

#include "pipesched/io/json.hpp"
#include "pipesched/service/request.hpp"

namespace pipesched::stream {

/// Writes the per-outcome JSON fields (name, fingerprint, then ok + error or
/// the result tail: provenance flags, front[], solvers[]) into an
/// already-open object. The single emitter behind both `batch --json`
/// request rows and the JSONL stream/serve lines — one field list, so the
/// two report formats cannot drift.
void writeOutcomeFields(io::JsonWriter& w, const std::string& name,
                        const service::RequestOutcome& outcome);

/// Appends one JSONL outcome line (no newline) to `out`:
/// {"index": I, ["line": N,] <writeOutcomeFields>}. `line` is the 1-based
/// input line, present when the transport correlates by it (stdio serve and
/// HTTP /solve, whose lines are byte-identical because both render here).
void renderOutcomeLine(std::string& out, std::size_t index, std::optional<std::size_t> line,
                       const service::Request& request,
                       const service::RequestOutcome& outcome);

/// Appends one parse-error line (no newline) to `out`:
/// {"line": N, "ok": false, "error": MSG} — the answer stdio serve and HTTP
/// /solve give a malformed request line.
void renderParseErrorLine(std::string& out, std::size_t line, const std::string& message);

class Sink {
 public:
  virtual ~Sink() = default;

  /// One solved (or failed) request. `index` is the request's 0-based
  /// position in the stream; calls arrive with strictly increasing indices.
  virtual void emit(std::size_t index, const service::Request& request,
                    const service::RequestOutcome& outcome) = 0;
};

/// Collects everything in memory — tests and small tools.
class CollectSink : public Sink {
 public:
  struct Item {
    std::size_t index = 0;
    service::Request request;
    service::RequestOutcome outcome;
  };

  void emit(std::size_t index, const service::Request& request,
            const service::RequestOutcome& outcome) override {
    items.push_back(Item{index, request, outcome});
  }

  std::vector<Item> items;
};

/// Mutex-guarded whole-line writer over one output stream. Every line is
/// rendered to completion in memory first, then appended + flushed under a
/// single lock — so lines from different call sites (the sink's outcome
/// emission, `serve`'s parse-error reporting) can never interleave mid-line
/// and corrupt the JSONL stream, however those call sites are threaded.
class JsonlLineWriter {
 public:
  explicit JsonlLineWriter(std::ostream& out) : out_(&out) {}

  JsonlLineWriter(const JsonlLineWriter&) = delete;
  JsonlLineWriter& operator=(const JsonlLineWriter&) = delete;

  /// Writes `line` (without its trailing newline) atomically and flushes.
  void writeLine(const std::string& line) {
    std::lock_guard<std::mutex> lock(mutex_);
    *out_ << line << '\n' << std::flush;
  }

 private:
  std::ostream* out_;
  std::mutex mutex_;
};

/// Writes one compact JSON object per outcome, flushing after every line —
/// the incremental half of the `batch --json` report (same per-request
/// fields, plus "index"). Lines are emitted as results complete, so a
/// consumer tailing the stream sees fronts without waiting for the batch.
class JsonlSink : public Sink {
 public:
  explicit JsonlSink(std::ostream& out)
      : owned_(std::in_place, out), writer_(&*owned_) {}

  /// Shares an external line writer — the `serve` shape, where parse-error
  /// lines from the source side go through the same guarded writer as the
  /// outcome lines. With `withLines`, every outcome line additionally
  /// carries "line": the request's Request::sourceLine — how `serve` keeps
  /// outcomes correlatable with request lines even when malformed lines
  /// (reported by line number, not index) interleave.
  JsonlSink(JsonlLineWriter& writer, bool withLines)
      : writer_(&writer), withLines_(withLines) {}

  void emit(std::size_t index, const service::Request& request,
            const service::RequestOutcome& outcome) override;

 private:
  std::optional<JsonlLineWriter> owned_;  ///< backs the ostream constructor
  JsonlLineWriter* writer_;
  bool withLines_ = false;
  std::string buffer_;  ///< reused line render buffer (capacity persists)
};

}  // namespace pipesched::stream
