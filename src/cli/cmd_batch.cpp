// `batch` — the portfolio scheduling service on the command line: solve many
// instances (files, directories, JSONL request files, named scenarios,
// generated suites) through the service's threads + result cache.
//
// Two execution shapes behind one set of sources:
//   * default — solveBatch: requests drained from the lazy Source into one
//     batch; table/JSON report with deterministic per-request fronts;
//   * --stream — the async engine: requests stay lazy end to end, outcomes
//     emitted incrementally as JSONL (memory bounded by queue + workers, not
//     by batch size).
#include <algorithm>
#include <fstream>
#include <memory>
#include <ostream>
#include <sstream>

#include "cli_internal.hpp"
#include "pipesched/exp/report.hpp"
#include "pipesched/io/json.hpp"
#include "pipesched/obs/metrics.hpp"
#include "pipesched/service/service.hpp"
#include "pipesched/stream/engine.hpp"

namespace pipesched::cli::detail {

namespace {

/// The single loader both execution shapes share: every request origin the
/// command supports, chained into one lazy Source. Callable once per pass
/// (--repeat re-reads files so later passes exercise the cache, not a copy).
std::unique_ptr<stream::Source> buildSource(const ArgList& args) {
  const stream::JsonlDefaults defaults = jsonlDefaultsFromArgs(args);

  std::vector<std::unique_ptr<stream::Source>> parts;
  if (!args.positionals().empty()) {
    parts.push_back(std::make_unique<stream::FileListSource>(
        stream::expandInstancePaths(args.positionals()), defaults.sweep, defaults.model));
  }
  if (const auto jsonl = args.get("requests")) {
    auto file = std::make_unique<std::ifstream>(*jsonl);
    if (!*file) throw std::runtime_error("cannot open request file: " + *jsonl);
    parts.push_back(std::make_unique<stream::JsonlSource>(std::move(file), defaults));
  }
  if (args.has("scenarios")) {
    parts.push_back(std::make_unique<stream::ScenarioSource>(defaults.sweep, defaults.model));
  }
  if (const auto kindSpec = args.get("kind")) {
    stream::GeneratorSource::Spec spec;
    spec.kind = parseKind(*kindSpec);
    spec.count = args.getSize("count", 10);
    spec.stages = args.getSize("stages", 10);
    spec.processors = args.getSize("processors", 10);
    spec.seed = args.getU64("seed", 20070628);
    spec.sweep = defaults.sweep;
    spec.model = defaults.model;
    parts.push_back(std::make_unique<stream::GeneratorSource>(spec));
  } else if (args.has("count")) {
    throw UsageError("--count needs --kind E1..E4");
  }

  if (parts.empty()) {
    throw UsageError(
        "nothing to solve: give instance files/directories, --requests FILE.jsonl, "
        "--scenarios, or --kind E1..E4 [--count N]");
  }
  if (parts.size() == 1) return std::move(parts.front());
  return std::make_unique<stream::ChainSource>(std::move(parts));
}

std::vector<service::Request> drainSource(stream::Source& source) {
  std::vector<service::Request> requests;
  while (std::optional<service::Request> request = source.next()) {
    requests.push_back(std::move(*request));
  }
  return requests;
}

void printText(std::ostream& out, const std::vector<service::Request>& requests,
               const service::BatchResult& batch, const service::CacheStats& cache,
               const service::CacheStats& sub) {
  exp::TextTable table;
  table.setHeader({"request", "fingerprint", "front", "min period", "min latency", "source"});
  for (std::size_t i = 0; i < requests.size(); ++i) {
    const service::RequestOutcome& outcome = batch.outcomes[i];
    const std::string fp = outcome.fingerprint.hex().substr(0, 12);
    if (!outcome.ok) {
      table.addRow({requests[i].name, fp, "error", "-", "-", outcome.error});
      continue;
    }
    const auto& front = outcome.result.front;
    const std::string source = outcome.fromCache ? "cache"
                               : outcome.deduped ? "dedup"
                                                 : (outcome.result.exactUsed ? "solved+exact"
                                                                             : "solved");
    table.addRow({requests[i].name, fp, std::to_string(front.size()),
                  front.empty() ? "-" : exp::formatReal(front.front().period, 3),
                  front.empty() ? "-" : exp::formatReal(front.back().latency, 3), source});
  }
  table.print(out);
  const service::BatchStats& s = batch.stats;
  out << "\n" << s.requests << " request(s): " << s.solved << " solved, " << s.cacheHits
      << " cache hit(s), " << s.deduped << " deduped, " << s.failed << " failed in "
      << exp::formatReal(s.wallSeconds, 3) << " s (" << exp::formatReal(s.requestsPerSecond, 1)
      << " req/s)\n";
  out << "cache: " << cache.entries << " entr" << (cache.entries == 1 ? "y" : "ies") << ", "
      << cache.hits << " hit(s), " << cache.misses << " miss(es), " << cache.evictions
      << " eviction(s)\n";
  out << "sub-results: " << s.subHits << " hit(s) (" << s.subUnitsReused
      << " whole unit(s) reused), " << sub.entries << " cached unit(s), " << sub.evictions
      << " eviction(s)\n";
  if (!s.members.empty()) {
    out << "\nportfolio members (fresh solves):\n";
    exp::TextTable members;
    members.setHeader(
        {"member", "runs", "points", "novel", "merged", "skipped", "dropped", "reused",
         "seeded"});
    for (const service::MemberBatchStats& m : s.members) {
      members.addRow({m.solver, std::to_string(m.runs), std::to_string(m.points),
                      std::to_string(m.novel), std::to_string(m.merged),
                      std::to_string(m.skipped), std::to_string(m.dropped),
                      std::to_string(m.reused), std::to_string(m.seeded)});
    }
    members.print(out);
  }
}

void printJson(std::ostream& out, const std::vector<service::Request>& requests,
               const service::BatchResult& batch, const service::CacheStats& cache,
               const service::CacheStats& sub) {
  io::JsonWriter w(out, /*pretty=*/true);
  w.beginObject();
  w.key("requests").beginArray();
  for (std::size_t i = 0; i < requests.size(); ++i) {
    w.beginObject();
    // Same field list as the JSONL stream lines — one emitter, no drift.
    stream::writeOutcomeFields(w, requests[i].name, batch.outcomes[i]);
    w.endObject();
  }
  w.endArray();
  w.key("stats").beginObject();
  w.kv("requests", batch.stats.requests);
  w.kv("solved", batch.stats.solved);
  w.kv("cache_hits", batch.stats.cacheHits);
  w.kv("deduped", batch.stats.deduped);
  w.kv("failed", batch.stats.failed);
  w.kv("wall_seconds", batch.stats.wallSeconds);
  w.kv("requests_per_second", batch.stats.requestsPerSecond);
  w.kv("sub_hits", static_cast<std::size_t>(batch.stats.subHits));
  w.kv("sub_units_reused", static_cast<std::size_t>(batch.stats.subUnitsReused));
  w.key("members").beginArray();
  for (const service::MemberBatchStats& m : batch.stats.members) {
    w.beginObject();
    w.kv("member", m.solver);
    w.kv("runs", static_cast<std::size_t>(m.runs));
    w.kv("points", static_cast<std::size_t>(m.points));
    w.kv("novel", static_cast<std::size_t>(m.novel));
    w.kv("merged", static_cast<std::size_t>(m.merged));
    w.kv("skipped", static_cast<std::size_t>(m.skipped));
    w.kv("dropped", static_cast<std::size_t>(m.dropped));
    w.kv("reused", static_cast<std::size_t>(m.reused));
    w.kv("seeded", static_cast<std::size_t>(m.seeded));
    w.endObject();
  }
  w.endArray();
  w.endObject();
  w.key("cache");
  writeCacheStatsJson(w, cache);
  w.key("sub_cache").beginObject();
  w.kv("entries", sub.entries);
  w.kv("hits", sub.hits);
  w.kv("misses", sub.misses);
  w.kv("evictions", sub.evictions);
  w.endObject();
  w.endObject();
  out << "\n";
}

/// --stream: pump every pass through the async engine, emitting outcome
/// JSONL incrementally, then one trailing {"stats": ...} line.
int runStreamMode(const ArgList& args, std::ostream& out, std::size_t repeat,
                  const service::ServiceConfig& serviceConfig) {
  stream::StreamConfig config;
  config.service = serviceConfig;  // its threads size the scheduler's workers
  config.queueCapacity = args.getSize("queue-capacity", 64);

  stream::AsyncScheduler scheduler(config);
  stream::JsonlSink sink(out);
  // runStream numbers each pass from 0; offset so the emitted "index" stays
  // strictly increasing across --repeat passes (the sink contract consumers
  // correlate by).
  struct OffsetSink : stream::Sink {
    stream::Sink* inner;
    std::size_t offset = 0;
    void emit(std::size_t index, const service::Request& request,
              const service::RequestOutcome& outcome) override {
      inner->emit(offset + index, request, outcome);
    }
  };
  OffsetSink offsetSink;
  offsetSink.inner = &sink;
  std::size_t requests = 0;
  std::size_t failed = 0;
  double wallSeconds = 0;
  std::unique_ptr<stream::Source> source = buildSource(args);
  args.assertConsumed();  // every option has been read by now
  for (std::size_t pass = 0; pass < repeat; ++pass) {
    if (pass > 0) source = buildSource(args);  // re-read files: cache, not copies
    offsetSink.offset = requests;
    const stream::EngineStats stats = stream::runStream(*source, offsetSink, scheduler);
    requests += stats.requests;
    failed += stats.failed;
    wallSeconds += stats.wallSeconds;
  }

  const stream::StreamStats s = scheduler.snapshot();
  const service::CacheStats cache = scheduler.cacheStats();
  const service::CacheStats sub = scheduler.subCacheStats();
  io::JsonWriter w(out, /*pretty=*/false);
  w.beginObject();
  w.key("stats").beginObject();
  w.kv("requests", requests);
  w.kv("solved", s.solved);
  w.kv("cache_hits", s.cacheHits);
  w.kv("coalesced", s.coalesced);
  w.kv("sub_hits", static_cast<std::size_t>(sub.hits));
  w.kv("failed", s.failed);
  w.kv("wall_seconds", wallSeconds);
  w.kv("requests_per_second", wallSeconds > 0 ? static_cast<double>(requests) / wallSeconds : 0.0);
  w.kv("backpressure_waits", static_cast<std::size_t>(s.queue.pushWaits));
  w.kv("queue_high_water", s.queue.highWater);
  w.kv("max_in_flight", s.maxInFlight);
  w.endObject();
  w.key("cache").beginObject();
  w.kv("entries", cache.entries);
  w.kv("hits", static_cast<std::size_t>(cache.hits));
  w.kv("misses", static_cast<std::size_t>(cache.misses));
  w.kv("evictions", static_cast<std::size_t>(cache.evictions));
  // sub_hits lives in the stats object above; only residency belongs here.
  w.kv("sub_entries", sub.entries);
  w.kv("sub_evictions", static_cast<std::size_t>(sub.evictions));
  w.endObject();
  w.endObject();
  out << "\n";
  return failed == 0 ? 0 : 1;
}

}  // namespace

int cmdBatch(const ArgList& args, std::ostream& out, std::ostream& /*err*/) {
  const std::size_t repeat = std::max<std::size_t>(1, args.getSize("repeat", 1));
  // --trace attaches per-request stage breakdowns to the JSON/JSONL output
  // and implies --metrics (registry recording). Raise-only: an externally
  // enabled flag (in-process caller) is never lowered by "off".
  const bool traceOn = parseOnOff(args, "trace", false);
  const bool metricsOn = parseOnOff(args, "metrics", traceOn);
  obs::ScopedTracingEnabled tracingScope(traceOn || obs::tracingEnabled());
  obs::ScopedMetricsEnabled metricsScope(metricsOn || obs::metricsEnabled());
  const service::ServiceConfig config = serviceConfigFromArgs(args);
  const bool json = args.has("json");  // stream mode is JSONL regardless

  if (args.has("stream")) {
    return runStreamMode(args, out, repeat, config);
  }
  std::vector<service::Request> requests = drainSource(*buildSource(args));
  args.assertConsumed();

  // --repeat submits the same batch N times through one service: the first
  // pass solves, later passes are served by the result cache. The table
  // shows the final pass; the summary aggregates every pass.
  service::SchedulingService svc(config);
  service::BatchResult batch = svc.solveBatch(requests);
  service::BatchStats total = batch.stats;
  for (std::size_t r = 1; r < repeat; ++r) {
    batch = svc.solveBatch(requests);
    total.merge(batch.stats);
  }
  const std::size_t failedFinalPass = batch.stats.failed;
  batch.stats = total;
  const service::CacheStats cache = svc.cacheStats();
  const service::CacheStats sub = svc.subCacheStats();

  // Outcomes carry their fingerprints — no per-request display hashing.
  if (json) {
    printJson(out, requests, batch, cache, sub);
  } else {
    printText(out, requests, batch, cache, sub);
  }
  return failedFinalPass == 0 ? 0 : 1;
}

}  // namespace pipesched::cli::detail
