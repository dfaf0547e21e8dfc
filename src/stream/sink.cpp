#include "pipesched/stream/sink.hpp"

namespace pipesched::stream {

void writeOutcomeFields(io::JsonWriter& w, const std::string& name,
                        const service::RequestOutcome& outcome) {
  w.kv("name", name);
  // The identity travels on the outcome — no re-canonicalization here, which
  // matters on warm streams where emission competes with sub-ms cache hits.
  char fingerprint[32];
  outcome.fingerprint.hex(fingerprint);
  w.kv("fingerprint", std::string_view(fingerprint, sizeof fingerprint));
  w.kv("ok", outcome.ok);
  if (!outcome.ok) {
    w.kv("error", outcome.error);
    // Deadline expiries are machine-distinguishable from parse/solve errors
    // (clients retry them differently). Emitted only when set, like `trace`
    // below, so healthy output stays byte-stable.
    if (outcome.timedOut) w.kv("timed_out", true);
    return;
  }
  w.kv("from_cache", outcome.fromCache);
  w.kv("deduped", outcome.deduped);
  w.kv("exact_used", outcome.result.exactUsed);
  w.kv("budget_exhausted", outcome.result.budgetExhausted);
  // A deadline- or failure-cut partial front is explicitly flagged — never a
  // silent truncation. Key present only when true: healthy outputs keep the
  // golden-diff / byte-identity contracts.
  if (outcome.result.degraded) w.kv("degraded", true);
  w.key("front").beginArray();
  for (const core::ParetoPoint& p : outcome.result.front) {
    w.beginObject();
    w.kv("period", p.period);
    w.kv("latency", p.latency);
    if (p.mapping) w.kv("intervals", p.mapping->intervalCount());
    w.endObject();
  }
  w.endArray();
  w.key("solvers").beginArray();
  for (const service::SolverContribution& c : outcome.result.solvers) {
    w.beginObject();
    w.kv("solver", c.solver);
    w.kv("points", c.points);
    w.kv("completed", c.completed);
    w.kv("units", c.units);
    w.kv("novel", c.novel);
    w.kv("merged", c.merged);
    w.kv("skipped", c.skipped);
    w.kv("dropped", c.dropped);
    // Work-sharing provenance (like from_cache/deduped above: depends on
    // cache state and timing; the points themselves never do).
    w.kv("reused", c.reused);
    w.kv("seeded", c.seeded);
    w.endObject();
  }
  w.endArray();
  // Per-request stage breakdown, present only when the producing path ran
  // with tracing on (--trace on): default output stays byte-stable for the
  // golden-diff and byte-identity contracts.
  if (outcome.trace != nullptr) {
    const obs::RequestTrace& trace = *outcome.trace;
    w.key("trace").beginObject();
    w.kv("total_seconds", trace.totalSeconds);
    w.key("stages").beginObject();
    for (std::size_t i = 0; i < obs::kStageCount; ++i) {
      if (trace.stageCounts[i] == 0) continue;
      w.kv(obs::stageName(static_cast<obs::Stage>(i)), trace.stageSeconds[i]);
    }
    w.endObject();
    w.key("members").beginArray();
    for (const auto& [solver, seconds] : trace.members) {
      w.beginObject();
      w.kv("solver", solver);
      w.kv("seconds", seconds);
      w.endObject();
    }
    w.endArray();
    w.endObject();
  }
}

void renderOutcomeLine(std::string& out, std::size_t index, std::optional<std::size_t> line,
                       const service::Request& request,
                       const service::RequestOutcome& outcome) {
  io::StringOutStream stream(out);
  io::JsonWriter w(stream, /*pretty=*/false);
  w.beginObject();
  w.kv("index", index);
  if (line) w.kv("line", *line);
  writeOutcomeFields(w, request.name, outcome);
  w.endObject();
}

void renderParseErrorLine(std::string& out, std::size_t line, const std::string& message) {
  io::StringOutStream stream(out);
  io::JsonWriter w(stream, /*pretty=*/false);
  w.beginObject();
  w.kv("line", line);
  w.kv("ok", false);
  w.kv("error", message);
  w.endObject();
}

void JsonlSink::emit(std::size_t index, const service::Request& request,
                     const service::RequestOutcome& outcome) {
  // Render the whole line first, then hand it to the guarded writer in one
  // piece — emission can never interleave mid-line with other writers (the
  // serve parse-error path) sharing the same JsonlLineWriter. The render
  // buffer is a member: clear() keeps its capacity, so warm emission makes
  // no allocations. emit() calls are serialized (the Sink contract), so the
  // single buffer is safe.
  buffer_.clear();
  renderOutcomeLine(buffer_, index,
                    withLines_ ? std::optional<std::size_t>(request.sourceLine) : std::nullopt,
                    request, outcome);
  writer_->writeLine(buffer_);
}

}  // namespace pipesched::stream
