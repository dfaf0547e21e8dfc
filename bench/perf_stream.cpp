// Streaming-engine bench: sustained throughput and submit-to-completion
// latency through AsyncScheduler across a (queue capacity x workers) grid,
// plus the warm cache pass. Emits a human summary and the machine-readable
// BENCH_stream.json:
//
//   {"benchmark":"perf_stream","requests":96,
//    "runs":[{"queue_capacity":2,"workers":1,"requests_per_second":...,
//             "latency_ms":{"p50":...,"p99":...,"max":...},
//             "backpressure_waits":...,"queue_high_water":...},...],
//    "cache":{"warm_requests_per_second":...,"warm_speedup":...},
//    "parse_path":{"lines":...,"legacy_requests_per_second":...,
//                  "fast_requests_per_second":...,"speedup":...,
//                  "outputs_identical":true}}
//
// On a 1-core container the worker axis is flat by construction — the
// meaningful signals are the latency-vs-capacity tradeoff (small queues bound
// p99 submit latency via earlier backpressure) and the warm-cache speedup.
//
// Usage: perf_stream [--requests N] [--stages N] [--processors P] [--points N]
//                    [--seed S] [--workers LIST] [--capacities LIST]
//                    [--output FILE]
#include <algorithm>
#include <chrono>
#include <fstream>
#include <iostream>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "pipesched/io/format.hpp"
#include "pipesched/io/json.hpp"
#include "pipesched/oracles/legacy_jsonl_source.hpp"
#include "pipesched/stream/async_scheduler.hpp"
#include "pipesched/stream/sink.hpp"
#include "pipesched/stream/source.hpp"
#include "pipesched/workload/generator.hpp"

namespace {

using namespace pipesched;
using Clock = std::chrono::steady_clock;

std::vector<service::Request> makeRequests(std::size_t count, std::size_t stages,
                                           std::size_t processors, std::size_t points,
                                           std::uint64_t seed) {
  const workload::ExperimentKind kinds[] = {
      workload::ExperimentKind::kE1BalancedHomComm,
      workload::ExperimentKind::kE2BalancedHetComm,
      workload::ExperimentKind::kE3LargeComputations,
      workload::ExperimentKind::kE4SmallComputations,
  };
  workload::Rng rng(seed);
  std::vector<service::Request> requests;
  requests.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    const workload::ExperimentKind kind = kinds[i % 4];
    workload::InstancePair pair = workload::randomInstance(kind, stages, processors, rng);
    std::ostringstream name;
    name << workload::experimentName(kind) << '-' << i;
    requests.push_back(service::Request{std::move(pair.pipeline), std::move(pair.platform),
                                        core::CommModel::kSequential,
                                        service::SweepSpec{points, 3}, name.str()});
  }
  return requests;
}

struct LatencySummary {
  double p50Ms = 0;
  double p99Ms = 0;
  double maxMs = 0;
};

LatencySummary summarize(std::vector<double> latenciesMs) {
  LatencySummary s;
  if (latenciesMs.empty()) return s;
  std::sort(latenciesMs.begin(), latenciesMs.end());
  const auto at = [&](double q) {
    const std::size_t idx = std::min(
        latenciesMs.size() - 1, static_cast<std::size_t>(q * static_cast<double>(latenciesMs.size())));
    return latenciesMs[idx];
  };
  s.p50Ms = at(0.50);
  s.p99Ms = at(0.99);
  s.maxMs = latenciesMs.back();
  return s;
}

struct RunSample {
  std::size_t queueCapacity = 0;
  std::size_t workers = 0;
  double requestsPerSecond = 0;
  double wallSeconds = 0;
  LatencySummary latency;
  std::uint64_t backpressureWaits = 0;
  std::size_t queueHighWater = 0;
  std::uint64_t coalesced = 0;
};

RunSample coldRun(const std::vector<service::Request>& requests, std::size_t capacity,
                  std::size_t workers) {
  stream::StreamConfig config;
  config.service.cacheCapacity = 0;  // cold: pure solver traffic
  config.workers = workers;
  config.queueCapacity = capacity;
  stream::AsyncScheduler scheduler(config);

  std::vector<double> latenciesMs(requests.size(), 0);
  std::vector<Clock::time_point> submitted(requests.size());
  const Clock::time_point start = Clock::now();
  for (std::size_t i = 0; i < requests.size(); ++i) {
    submitted[i] = Clock::now();
    // Each callback writes its own slot: no locking, coherent after drain().
    scheduler.submit(requests[i],
                     [&latenciesMs, &submitted, i](const service::Request&,
                                                   const service::RequestOutcome& outcome) {
                       if (!outcome.ok) throw std::runtime_error("perf_stream: " + outcome.error);
                       latenciesMs[i] = std::chrono::duration<double, std::milli>(
                                            Clock::now() - submitted[i])
                                            .count();
                     });
  }
  scheduler.drain();
  const double wall = std::chrono::duration<double>(Clock::now() - start).count();

  const stream::StreamStats stats = scheduler.stats();
  if (stats.failed != 0 || stats.callbackExceptions != 0) {
    throw std::runtime_error("perf_stream: " + std::to_string(stats.failed) +
                             " request(s) failed");
  }
  RunSample sample;
  sample.queueCapacity = capacity;
  sample.workers = workers;
  sample.wallSeconds = wall;
  sample.requestsPerSecond =
      wall > 0 ? static_cast<double>(requests.size()) / wall : 0;
  sample.latency = summarize(std::move(latenciesMs));
  sample.backpressureWaits = stats.queue.pushWaits;
  sample.queueHighWater = stats.queue.highWater;
  sample.coalesced = stats.coalesced;
  return sample;
}

// ---------------------------------------------------------------------------
// Parse-path bench: the zero-copy JSONL reader (BlockLineReader + LiteParser
// + readInstanceInPlace) against the legacy getline + parseJson tree walk
// (oracles::LegacyJsonlSource), over an identical warm corpus. The scheduler runs inline (workers == 0)
// with every request a cache hit, so ingestion — parse + response emission —
// is the measured per-request cost, exactly the regime the ROADMAP item
// names. Outputs of the two readers are compared byte for byte (fully warm
// on both sides) before any timing; a mismatch aborts the bench.
// ---------------------------------------------------------------------------

struct ParsePathSample {
  std::size_t lines = 0;
  std::size_t distinct = 0;
  double legacyReqPerSec = 0;  ///< ingestion only: source->next() loop
  double fastReqPerSec = 0;
  double speedup = 0;
  double legacyWarmStreamReqPerSec = 0;  ///< ingest + warm solve + drain
  double fastWarmStreamReqPerSec = 0;
  double warmStreamSpeedup = 0;
};

ParsePathSample parsePathRun(std::size_t lines, std::uint64_t seed) {
  // A handful of distinct tiny inline-"text" instances, cycled with distinct
  // "points" overrides so the warm cache holds several fingerprints — the
  // serve shape, not one request repeated.
  const std::size_t distinct = 8;
  std::vector<std::string> protoLines;
  workload::Rng rng(seed);
  for (std::size_t i = 0; i < distinct; ++i) {
    workload::InstancePair pair = workload::randomInstance(
        workload::ExperimentKind::kE1BalancedHomComm, 3, 2, rng);
    std::ostringstream text;
    io::writeInstance(text, io::Instance{std::move(pair.pipeline),
                                         std::move(pair.platform), ""});
    std::ostringstream line;
    io::JsonWriter w(line, /*pretty=*/false);
    w.beginObject();
    w.kv("text", text.str());
    w.kv("points", 2 + i % 4);
    w.kv("name", "parse-" + std::to_string(i));
    w.endObject();
    protoLines.push_back(std::move(line).str());
  }
  std::string corpus;
  for (std::size_t i = 0; i < lines; ++i) {
    corpus += protoLines[i % distinct];
    corpus += '\n';
  }

  stream::StreamConfig config;
  config.workers = 0;  // inline: no scheduler hand-off in the measurement
  config.queueCapacity = 8;
  config.service.cacheCapacity = distinct * 2;
  stream::AsyncScheduler scheduler(config);
  const stream::JsonlDefaults defaults;

  // The reader under test: the library's JsonlSource or the legacy oracle.
  enum class Reader { kFast, kLegacy };
  const auto makeSource = [&](std::istream& in,
                              Reader reader) -> std::unique_ptr<stream::Source> {
    if (reader == Reader::kLegacy) {
      return std::make_unique<oracles::LegacyJsonlSource>(in, defaults);
    }
    return std::make_unique<stream::JsonlSource>(in, defaults);
  };

  // One ingest pass; with `rendered` set it also re-renders every outcome
  // line through the reused-buffer JsonlSink (the byte-identity probe).
  const auto ingestPass = [&](Reader reader, std::string* rendered) -> double {
    std::istringstream in(corpus);
    std::optional<std::ostringstream> renderedStream;
    std::optional<stream::JsonlSink> sink;
    if (rendered != nullptr) {
      renderedStream.emplace();
      sink.emplace(*renderedStream);
    }
    const std::unique_ptr<stream::Source> source = makeSource(in, reader);
    std::size_t index = 0;
    const Clock::time_point t0 = Clock::now();
    while (std::optional<service::Request> request = source->next()) {
      scheduler.submit(std::move(*request),
                       [&](const service::Request& req,
                           const service::RequestOutcome& outcome) {
                         if (!outcome.ok) {
                           throw std::runtime_error("perf_stream parse_path: " +
                                                    outcome.error);
                         }
                         if (sink) sink->emit(index, req, outcome);
                       });
      ++index;
    }
    scheduler.drain();
    const double wall = std::chrono::duration<double>(Clock::now() - t0).count();
    if (index != lines) {
      throw std::runtime_error("perf_stream parse_path: parsed " +
                               std::to_string(index) + " of " +
                               std::to_string(lines) + " lines");
    }
    if (rendered != nullptr) *rendered = std::move(*renderedStream).str();
    return wall;
  };

  // Ingestion only: the JSONL line -> service::Request path this section
  // exists to measure, with solving out of the loop entirely.
  const auto parsePass = [&](Reader reader) -> double {
    std::istringstream in(corpus);
    const std::unique_ptr<stream::Source> source = makeSource(in, reader);
    std::size_t parsed = 0;
    const Clock::time_point t0 = Clock::now();
    while (std::optional<service::Request> request = source->next()) ++parsed;
    const double wall = std::chrono::duration<double>(Clock::now() - t0).count();
    if (parsed != lines) {
      throw std::runtime_error("perf_stream parse_path: parsed " +
                               std::to_string(parsed) + " of " +
                               std::to_string(lines) + " lines");
    }
    return wall;
  };

  // Warm the cache, then compare the two readers' full rendered output in
  // the identical (fully warm) cache state.
  (void)ingestPass(Reader::kLegacy, nullptr);
  std::string legacyRendered;
  std::string fastRendered;
  (void)ingestPass(Reader::kLegacy, &legacyRendered);
  (void)ingestPass(Reader::kFast, &fastRendered);
  if (legacyRendered != fastRendered) {
    throw std::runtime_error(
        "perf_stream parse_path: fast and legacy readers rendered different "
        "output — zero-copy path is broken");
  }

  // Timed: best of 3 per reader and measurement, alternating so neither
  // mode owns the noisier first iterations.
  double legacyBest = 0;
  double fastBest = 0;
  double legacyStreamBest = 0;
  double fastStreamBest = 0;
  const auto keepMin = [](double& best, double wall) {
    if (best == 0 || wall < best) best = wall;
  };
  for (int rep = 0; rep < 3; ++rep) {
    keepMin(legacyBest, parsePass(Reader::kLegacy));
    keepMin(fastBest, parsePass(Reader::kFast));
    keepMin(legacyStreamBest, ingestPass(Reader::kLegacy, nullptr));
    keepMin(fastStreamBest, ingestPass(Reader::kFast, nullptr));
  }

  const auto rate = [lines](double wall) {
    return wall > 0 ? static_cast<double>(lines) / wall : 0;
  };
  ParsePathSample sample;
  sample.lines = lines;
  sample.distinct = distinct;
  sample.legacyReqPerSec = rate(legacyBest);
  sample.fastReqPerSec = rate(fastBest);
  sample.speedup = sample.legacyReqPerSec > 0
                       ? sample.fastReqPerSec / sample.legacyReqPerSec
                       : 0;
  sample.legacyWarmStreamReqPerSec = rate(legacyStreamBest);
  sample.fastWarmStreamReqPerSec = rate(fastStreamBest);
  sample.warmStreamSpeedup = sample.legacyWarmStreamReqPerSec > 0
                                 ? sample.fastWarmStreamReqPerSec /
                                       sample.legacyWarmStreamReqPerSec
                                 : 0;
  return sample;
}

}  // namespace

int main(int argc, char** argv) {
  std::size_t requests = 96;
  std::size_t stages = 10;
  std::size_t processors = 8;
  std::size_t points = 8;
  std::uint64_t seed = 20070628;
  std::vector<std::size_t> workerCounts = {1, 2, 4};
  std::vector<std::size_t> capacities = {2, 8, 32};
  std::size_t parseLines = 20000;
  std::string output = "BENCH_stream.json";
  const auto usage = [&] {
    std::cerr << "usage: " << argv[0]
              << " [--requests N] [--stages N] [--processors P] [--points N] [--seed S]"
                 " [--workers LIST] [--capacities LIST] [--parse-lines N]"
                 " [--output FILE]\n";
    return 2;
  };
  try {
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      const auto next = [&]() -> std::string {
        if (i + 1 >= argc) throw std::runtime_error("missing value for " + arg);
        return argv[++i];
      };
      const auto parseList = [&](std::vector<std::size_t>& into) {
        into.clear();
        std::stringstream ss(next());
        std::string token;
        while (std::getline(ss, token, ',')) into.push_back(std::stoul(token));
      };
      if (arg == "--requests") requests = std::stoul(next());
      else if (arg == "--stages") stages = std::stoul(next());
      else if (arg == "--processors") processors = std::stoul(next());
      else if (arg == "--points") points = std::stoul(next());
      else if (arg == "--seed") seed = std::stoull(next());
      else if (arg == "--parse-lines") parseLines = std::stoul(next());
      else if (arg == "--output") output = next();
      else if (arg == "--workers") parseList(workerCounts);
      else if (arg == "--capacities") parseList(capacities);
      else return usage();
    }
  } catch (const std::exception& e) {
    std::cerr << "perf_stream: " << e.what() << "\n";
    return usage();
  }
  if (requests == 0 || workerCounts.empty() || capacities.empty()) {
    std::cerr << "perf_stream: --requests, --workers, --capacities must be non-empty\n";
    return usage();
  }

  const std::vector<service::Request> batch =
      makeRequests(requests, stages, processors, points, seed);
  std::cout << "perf_stream: " << requests << " requests (" << stages << " stages, "
            << processors << " processors, " << points << " sweep points)\n";

  // Capacity axis at the middle worker count, then the worker axis at the
  // middle capacity — 2 sweeps instead of a full grid keeps the bench quick.
  const std::size_t midWorkers = workerCounts[workerCounts.size() / 2];
  const std::size_t midCapacity = capacities[capacities.size() / 2];
  std::vector<RunSample> samples;
  for (const std::size_t capacity : capacities) {
    samples.push_back(coldRun(batch, capacity, midWorkers));
  }
  for (const std::size_t workers : workerCounts) {
    if (workers == midWorkers) continue;  // already measured on the capacity axis
    samples.push_back(coldRun(batch, midCapacity, workers));
  }
  for (const RunSample& s : samples) {
    std::cout << "  capacity=" << s.queueCapacity << " workers=" << s.workers << ": "
              << s.requestsPerSecond << " req/s, latency p50 " << s.latency.p50Ms
              << " ms, p99 " << s.latency.p99Ms << " ms, backpressure waits "
              << s.backpressureWaits << "\n";
  }

  // Warm pass: same stream twice through one scheduler with the cache on.
  stream::StreamConfig warmConfig;
  warmConfig.service.cacheCapacity = requests * 2;
  warmConfig.workers = midWorkers;
  warmConfig.queueCapacity = midCapacity;
  stream::AsyncScheduler warm(warmConfig);
  const auto pass = [&] {
    const Clock::time_point t0 = Clock::now();
    std::vector<std::future<service::RequestOutcome>> futures;
    futures.reserve(batch.size());
    for (const service::Request& request : batch) futures.push_back(warm.submit(request));
    for (auto& future : futures) {
      if (!future.get().ok) throw std::runtime_error("perf_stream: warm request failed");
    }
    return std::chrono::duration<double>(Clock::now() - t0).count();
  };
  const double coldSeconds = pass();
  const double warmSeconds = pass();
  const double warmSpeedup =
      coldSeconds > 0 && warmSeconds > 0 ? coldSeconds / warmSeconds : 1.0;
  const stream::StreamStats warmStats = warm.stats();
  const double warmReqPerSec =
      warmSeconds > 0 ? static_cast<double>(requests) / warmSeconds : 0;
  std::cout << "  warm pass: " << warmReqPerSec << " req/s, speedup vs cold " << warmSpeedup
            << "x (cache hits " << warmStats.cacheHits << ", coalesced "
            << warmStats.coalesced << ")\n";

  // Warm ingestion: zero-copy reader vs the legacy tree reader.
  ParsePathSample parsePath;
  if (parseLines > 0) {
    parsePath = parsePathRun(parseLines, seed);
    std::cout << "  parse path (" << parsePath.lines << " JSONL lines): legacy "
              << parsePath.legacyReqPerSec << " req/s, fast " << parsePath.fastReqPerSec
              << " req/s, speedup " << parsePath.speedup << "x\n"
              << "  warm stream (ingest + cache-hit solve): legacy "
              << parsePath.legacyWarmStreamReqPerSec << " req/s, fast "
              << parsePath.fastWarmStreamReqPerSec << " req/s, speedup "
              << parsePath.warmStreamSpeedup << "x\n";
  }

  std::ofstream os(output);
  if (!os) {
    std::cerr << "cannot write " << output << "\n";
    return 1;
  }
  io::JsonWriter w(os, /*pretty=*/true);
  w.beginObject();
  w.kv("benchmark", "perf_stream");
  w.kv("requests", requests);
  w.kv("stages", stages);
  w.kv("processors", processors);
  w.kv("sweep_points", points);
  w.key("runs").beginArray();
  for (const RunSample& s : samples) {
    w.beginObject();
    w.kv("queue_capacity", s.queueCapacity);
    w.kv("workers", s.workers);
    w.kv("requests_per_second", s.requestsPerSecond);
    w.kv("wall_seconds", s.wallSeconds);
    w.key("latency_ms").beginObject();
    w.kv("p50", s.latency.p50Ms);
    w.kv("p99", s.latency.p99Ms);
    w.kv("max", s.latency.maxMs);
    w.endObject();
    w.kv("backpressure_waits", static_cast<std::size_t>(s.backpressureWaits));
    w.kv("queue_high_water", s.queueHighWater);
    w.kv("coalesced", static_cast<std::size_t>(s.coalesced));
    w.endObject();
  }
  w.endArray();
  w.key("cache").beginObject();
  w.kv("warm_requests_per_second", warmReqPerSec);
  w.kv("warm_speedup", warmSpeedup);
  w.kv("cache_hits", static_cast<std::size_t>(warmStats.cacheHits));
  w.kv("coalesced", static_cast<std::size_t>(warmStats.coalesced));
  w.endObject();
  if (parseLines > 0) {
    // Byte-identity of the two readers' rendered output was asserted before
    // timing (parsePathRun aborts on mismatch), so the presence of this
    // section certifies it.
    w.key("parse_path").beginObject();
    w.kv("lines", parsePath.lines);
    w.kv("distinct_requests", parsePath.distinct);
    w.kv("legacy_requests_per_second", parsePath.legacyReqPerSec);
    w.kv("fast_requests_per_second", parsePath.fastReqPerSec);
    w.kv("speedup", parsePath.speedup);
    w.kv("legacy_warm_stream_requests_per_second", parsePath.legacyWarmStreamReqPerSec);
    w.kv("fast_warm_stream_requests_per_second", parsePath.fastWarmStreamReqPerSec);
    w.kv("warm_stream_speedup", parsePath.warmStreamSpeedup);
    w.kv("outputs_identical", true);
    w.endObject();
  }
  w.endObject();
  os << "\n";
  std::cout << "wrote " << output << "\n";
  return 0;
}
