// `serve` — the streaming front-end as a process, in two transports:
//
//   stdio (default): read JSONL request lines (stdin or --input FILE), answer
//   each with one JSONL outcome line as soon as it completes, in input order.
//   The loop is incremental end to end: a request on line 1 is answered while
//   line 10 000 is still being read, and memory stays bounded by queue
//   capacity + workers no matter how long the stream runs.
//
//   --listen HOST:PORT: a multi-client HTTP/1.1 server on a poll-based event
//   loop. POST /solve carries the same JSONL bodies through the same
//   AsyncScheduler (responses byte-identical to stdio outcome lines); GET
//   /stats, /healthz and /metrics expose the observability plane live. When
//   the scheduler queue saturates, new POSTs are shed with 503 (+
//   net.shed_total) instead of stalling the accept loop. Port 0 picks an
//   ephemeral port; --port-file FILE publishes "HOST PORT" for scripts.
//
// Both transports shut down gracefully on SIGINT/SIGTERM: refuse new work,
// drain the scheduler, emit a final stats snapshot (when stats emission is
// configured), exit 0.
//
// Malformed lines are reported as {"line": N, "ok": false, "error": ...} and
// skipped — a server must not die because one client sent garbage. Exit code
// is 0 only when every line parsed and every request solved (or the server
// was asked to stop and drained cleanly).
#include <csignal>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <memory>
#include <mutex>
#include <ostream>
#include <sstream>
#include <thread>

#include "cli_internal.hpp"
#include "pipesched/fault/fault.hpp"
#include "pipesched/io/json.hpp"
#include "pipesched/net/endpoints.hpp"
#include "pipesched/net/server.hpp"
#include "pipesched/obs/metrics.hpp"
#include "pipesched/stream/engine.hpp"

namespace pipesched::cli::detail {

namespace {

/// One observability snapshot line: coherent scheduler poll (queue depth,
/// in-flight, parked waiters — invariants hold mid-burst, see
/// AsyncScheduler::snapshot()), cache + sub-cache counters (hits, misses,
/// evictions), and the full metric registry.
std::string renderServeSnapshot(const stream::AsyncScheduler& scheduler,
                                std::size_t sequence, double uptimeSeconds) {
  const stream::StreamStats snap = scheduler.snapshot();
  std::ostringstream buffer;
  io::JsonWriter w(buffer, /*pretty=*/false);
  w.beginObject();
  w.kv("type", "stats");
  w.kv("sequence", sequence);
  w.kv("uptime_seconds", uptimeSeconds);
  w.key("scheduler").beginObject();
  w.kv("submitted", static_cast<std::size_t>(snap.submitted));
  w.kv("completed", static_cast<std::size_t>(snap.completed));
  w.kv("in_flight", static_cast<std::size_t>(snap.inFlight));
  w.kv("inflight_keys", snap.inflightKeys);
  w.kv("parked_waiters", snap.parkedWaiters);
  w.kv("queue_depth", snap.queueDepth);
  w.kv("queue_capacity", snap.queueCapacity);
  w.kv("queue_high_water", snap.queue.highWater);
  w.kv("backpressure_waits", static_cast<std::size_t>(snap.queue.pushWaits));
  w.kv("solved", static_cast<std::size_t>(snap.solved));
  w.kv("cache_hits", static_cast<std::size_t>(snap.cacheHits));
  w.kv("coalesced", static_cast<std::size_t>(snap.coalesced));
  w.kv("failed", static_cast<std::size_t>(snap.failed));
  w.kv("max_in_flight", snap.maxInFlight);
  w.endObject();
  w.key("cache");
  writeCacheStatsJson(w, scheduler.cacheStats());
  w.key("sub_cache");
  writeCacheStatsJson(w, scheduler.subCacheStats());
  w.key("metrics");
  obs::writeSnapshotJson(obs::registry().snapshot(), w);
  w.endObject();
  return std::move(buffer).str();
}

// -- Graceful shutdown plumbing ---------------------------------------------
// SIGINT/SIGTERM flip one atomic (the stdio loop polls it between lines) and
// poke the listen server's self-pipe (async-signal-safe requestStop). The
// handlers are installed only for the duration of a serve run and restored
// afterwards — the CLI is re-entered in-process by tests.

std::atomic<bool> g_shutdownRequested{false};
std::atomic<net::HttpServer*> g_listenServer{nullptr};

void handleShutdownSignal(int /*signum*/) {
  g_shutdownRequested.store(true);
  if (net::HttpServer* server = g_listenServer.load()) server->requestStop();
}

class ScopedSignalHandlers {
 public:
  ScopedSignalHandlers() {
    struct sigaction action {};
    action.sa_handler = handleShutdownSignal;
    sigemptyset(&action.sa_mask);
    action.sa_flags = 0;  // no SA_RESTART: a blocked stdin read returns EINTR
    ::sigaction(SIGINT, &action, &previousInt_);
    ::sigaction(SIGTERM, &action, &previousTerm_);
  }
  ~ScopedSignalHandlers() {
    ::sigaction(SIGINT, &previousInt_, nullptr);
    ::sigaction(SIGTERM, &previousTerm_, nullptr);
    g_shutdownRequested.store(false);
  }
  ScopedSignalHandlers(const ScopedSignalHandlers&) = delete;
  ScopedSignalHandlers& operator=(const ScopedSignalHandlers&) = delete;

 private:
  struct sigaction previousInt_ {};
  struct sigaction previousTerm_ {};
};

/// Removes the published --port-file when the serve run ends — graceful
/// drain, signal-initiated stop, or error unwind alike — so scripts polling
/// for the file never read a port that no longer answers.
class PortFileGuard {
 public:
  explicit PortFileGuard(std::string path) : path_(std::move(path)) {}
  ~PortFileGuard() {
    if (!path_.empty()) std::remove(path_.c_str());
  }
  PortFileGuard(const PortFileGuard&) = delete;
  PortFileGuard& operator=(const PortFileGuard&) = delete;

 private:
  std::string path_;
};

/// --deadline-ms N: default per-request deadline applied to input lines that
/// carry no deadline_ms of their own. 0 (the default) disables it.
double deadlineDefaultFromArgs(const ArgList& args) {
  const double deadlineMs = args.getReal("deadline-ms", 0);
  if (deadlineMs < 0) throw UsageError("--deadline-ms must be >= 0");
  return deadlineMs;
}

/// Periodic snapshot emitter: a background thread that wakes every
/// `intervalSeconds` and emits one snapshot line. stop() is idempotent.
class SnapshotEmitter {
 public:
  SnapshotEmitter(double intervalSeconds, std::function<void()> emit) {
    if (intervalSeconds <= 0) return;
    thread_ = std::thread([this, intervalSeconds, emit = std::move(emit)] {
      std::unique_lock<std::mutex> lock(mutex_);
      for (;;) {
        if (cv_.wait_for(lock, std::chrono::duration<double>(intervalSeconds),
                         [&] { return done_; })) {
          return;
        }
        lock.unlock();
        emit();
        lock.lock();
      }
    });
  }

  ~SnapshotEmitter() { stop(); }

  void stop() {
    if (!thread_.joinable()) return;
    {
      std::lock_guard<std::mutex> lock(mutex_);
      done_ = true;
    }
    cv_.notify_all();
    thread_.join();
  }

 private:
  std::mutex mutex_;
  std::condition_variable cv_;
  bool done_ = false;
  std::thread thread_;
};

int serveStdio(const ArgList& args, std::ostream& out, std::ostream& err) {
  // --trace attaches per-request "trace" breakdowns to outcome lines;
  // --stats-interval SECS emits one observability snapshot line per interval
  // (stderr unless --stats-output FILE). Both default --metrics to on.
  // Raise-only, like `batch`: an externally enabled flag is never lowered.
  const bool traceOn = parseOnOff(args, "trace", false);
  const double statsInterval = args.getReal("stats-interval", 0);
  if (statsInterval < 0) throw UsageError("--stats-interval must be >= 0");
  const bool metricsOn = parseOnOff(args, "metrics", traceOn || statsInterval > 0);
  obs::ScopedTracingEnabled tracingScope(traceOn || obs::tracingEnabled());
  obs::ScopedMetricsEnabled metricsScope(metricsOn || obs::metricsEnabled());
  const std::unique_ptr<std::ofstream> statsFile = openStatsOutput(args);
  std::ostream& statsStream = statsFile ? *statsFile : err;
  // Snapshot emission is configured when either knob is present. A
  // --stats-output file with no interval still gets its terminal snapshot —
  // previously that combination produced a 0-byte file because the final
  // emit was guarded on the interval alone.
  const bool wantStats = statsInterval > 0 || statsFile != nullptr;

  stream::JsonlDefaults defaults = jsonlDefaultsFromArgs(args);
  defaults.deadlineMs = deadlineDefaultFromArgs(args);

  stream::StreamConfig config;
  config.service = serviceConfigFromArgs(args);  // --threads sizes the workers
  config.queueCapacity = args.getSize("queue-capacity", 64);

  std::unique_ptr<std::ifstream> file;
  std::istream* in = &std::cin;
  if (const auto path = args.get("input")) {
    file = std::make_unique<std::ifstream>(*path);
    if (!*file) throw std::runtime_error("cannot open input: " + *path);
    in = file.get();
  }
  args.assertConsumed();

  ScopedSignalHandlers signals;

  // Every line of output — outcome lines from the sink's emit side and
  // parse-error lines from the source-pull side — goes through one guarded
  // whole-line writer, so the two paths can never interleave mid-line and
  // corrupt the JSONL stream (pinned by the CliServe garbage-stress test).
  stream::JsonlLineWriter lineWriter(out);
  std::size_t parseErrors = 0;
  // The error handler runs only on the source-pull (pump) thread, so one
  // reused render buffer suffices — capacity persists across errors.
  std::string errorBuffer;
  stream::JsonlSource source(*in, defaults,
                             [&](std::size_t line, const std::string& message) {
                               ++parseErrors;
                               errorBuffer.clear();
                               stream::renderParseErrorLine(errorBuffer, line, message);
                               lineWriter.writeLine(errorBuffer);
                             });

  // The shutdown admission gate: once a stop was requested, next() reports
  // end-of-stream — the engine then drains what was accepted.
  class GatedSource : public stream::Source {
   public:
    explicit GatedSource(stream::JsonlSource& inner) : inner_(&inner) {}
    std::optional<service::Request> next() override {
      if (g_shutdownRequested.load()) return std::nullopt;  // refuse new work
      return inner_->next();
    }

   private:
    stream::JsonlSource* inner_;
  };
  GatedSource gated(source);
  // Outcome lines carry each request's input line, so they stay correlatable
  // even when malformed lines interleave.
  stream::JsonlSink sink(lineWriter, /*withLines=*/true);
  stream::AsyncScheduler scheduler(config);

  // Snapshot lines share a guarded whole-line writer so they can never
  // interleave mid-line — but note they go to stderr (or the --stats-output
  // file), never into the stdout outcome stream.
  stream::JsonlLineWriter statsWriter(statsStream);
  const auto startedAt = std::chrono::steady_clock::now();
  std::size_t statsSequence = 0;
  const auto emitSnapshot = [&] {
    const double uptime =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - startedAt).count();
    statsWriter.writeLine(renderServeSnapshot(scheduler, statsSequence++, uptime));
  };

  stream::EngineStats stats;
  {
    SnapshotEmitter emitter(statsInterval, emitSnapshot);
    stats = stream::runStream(gated, sink, scheduler);
    emitter.stop();
  }
  // Terminal snapshot on clean EOF and on drain-after-signal alike, even
  // when the input ended mid-interval — so every configured run yields at
  // least one snapshot line.
  if (wantStats) emitSnapshot();
  const bool stopped = g_shutdownRequested.load();

  const stream::StreamStats s = scheduler.snapshot();
  const service::CacheStats cache = scheduler.cacheStats();
  const service::CacheStats sub = scheduler.subCacheStats();
  err << "serve: " << stats.requests << " request(s) — " << s.solved << " solved, "
      << s.cacheHits << " cache hit(s), " << s.coalesced << " coalesced, "
      << "sub_hits=" << sub.hits << ", evictions=" << cache.evictions << "+" << sub.evictions
      << ", " << stats.failed << " failed, " << parseErrors
      << " parse error(s) in " << stats.wallSeconds << " s"
      << (stopped ? " (stopped by signal, drained)" : "") << "\n";
  // A signal-initiated stop that drained cleanly is a success exit whatever
  // the stream had left unread.
  if (stopped) return 0;
  return (stats.failed == 0 && parseErrors == 0) ? 0 : 1;
}

int serveListen(const ArgList& args, const std::string& listenSpec, std::ostream& /*out*/,
                std::ostream& err) {
  const bool traceOn = parseOnOff(args, "trace", false);
  const double statsInterval = args.getReal("stats-interval", 0);
  if (statsInterval < 0) throw UsageError("--stats-interval must be >= 0");
  // Network mode defaults metrics ON: /metrics and /stats are the point of
  // exposing the plane. --metrics off still turns everything off.
  const bool metricsOn = parseOnOff(args, "metrics", true);
  obs::ScopedTracingEnabled tracingScope(traceOn || obs::tracingEnabled());
  obs::ScopedMetricsEnabled metricsScope(metricsOn || obs::metricsEnabled());
  if (obs::metricsEnabled()) {
    // Fresh, fully-enumerated registry: /metrics answers the whole catalog
    // from the first scrape, and counters start at zero for this server.
    obs::registry().reset();
    obs::preregisterStandardMetrics();
  }

  const std::unique_ptr<std::ofstream> statsFile = openStatsOutput(args);
  std::ostream& statsStream = statsFile ? *statsFile : err;
  const bool wantStats = statsInterval > 0 || statsFile != nullptr;

  stream::JsonlDefaults defaults = jsonlDefaultsFromArgs(args);
  defaults.deadlineMs = deadlineDefaultFromArgs(args);

  stream::StreamConfig config;
  config.service = serviceConfigFromArgs(args);
  // Solves must run off the event loop: at least one worker even under
  // --serial (within-request solving stays serial either way).
  config.service.threads = std::max<std::size_t>(1, config.service.threads);
  config.queueCapacity = args.getSize("queue-capacity", 64);

  net::HttpServerConfig serverConfig;
  serverConfig.endpoint = net::parseEndpoint(listenSpec);
  serverConfig.maxConnections = args.getSize("max-connections", 64);
  serverConfig.requestTimeoutMs = static_cast<int>(
      args.getSize("request-timeout-ms",
                   static_cast<std::size_t>(serverConfig.requestTimeoutMs)));
  serverConfig.idleTimeoutMs = static_cast<int>(args.getSize(
      "idle-timeout-ms", static_cast<std::size_t>(serverConfig.idleTimeoutMs)));
  const auto portFile = args.get("port-file");
  args.assertConsumed();

  stream::AsyncScheduler scheduler(config);
  net::HttpServer server(serverConfig);

  stream::JsonlLineWriter statsWriter(statsStream);
  const auto startedAt = std::chrono::steady_clock::now();
  const auto uptimeSeconds = [startedAt] {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() - startedAt)
        .count();
  };
  // The sequence is shared by the periodic emitter and GET /stats (any
  // thread), so snapshot consumers see one monotone numbering.
  auto statsSequence = std::make_shared<std::atomic<std::size_t>>(0);
  const auto renderSnapshot = [&scheduler, statsSequence, uptimeSeconds] {
    return renderServeSnapshot(scheduler, statsSequence->fetch_add(1), uptimeSeconds());
  };

  net::ServeEndpointsConfig endpoints;
  endpoints.defaults = defaults;
  endpoints.statsSnapshot = renderSnapshot;
  endpoints.draining = [&server] { return server.draining(); };
  endpoints.uptimeSeconds = uptimeSeconds;
  net::installServeEndpoints(server, scheduler, endpoints);

  server.bind();
  const net::Endpoint bound = server.local();
  err << "serve: listening on " << bound.str() << "\n";
  if (portFile) {
    std::ofstream f(*portFile);
    if (!f) throw std::runtime_error("cannot open port file: " + *portFile);
    f << bound.host << ' ' << bound.port << '\n';
  }
  // The port file is a liveness signal: published once the port answers,
  // removed as part of the graceful drain (SIGTERM and normal exit alike).
  PortFileGuard portFileGuard(portFile ? *portFile : std::string());

  // Publish the server to the signal handler only while run() owns it.
  g_listenServer.store(&server);
  ScopedSignalHandlers signals;
  {
    SnapshotEmitter emitter(statsInterval,
                            [&] { statsWriter.writeLine(renderSnapshot()); });
    server.run();  // returns once requestStop() finished the graceful drain
    emitter.stop();
  }
  g_listenServer.store(nullptr);
  scheduler.drain();  // all responses landed, so this returns immediately

  if (wantStats) statsWriter.writeLine(renderSnapshot());  // terminal snapshot

  const net::ServerStats ns = server.stats();
  const stream::StreamStats s = scheduler.snapshot();
  err << "serve: drained — " << ns.requests << " http request(s) on " << ns.accepted
      << " connection(s), " << static_cast<std::size_t>(s.completed)
      << " solve(s) (" << static_cast<std::size_t>(s.cacheHits) << " cache hit(s), "
      << static_cast<std::size_t>(s.failed) << " failed), " << ns.shed
      << " shed, " << ns.bytesRead << "B in / " << ns.bytesWritten << "B out in "
      << uptimeSeconds() << " s\n";
  return 0;
}

}  // namespace

int cmdServe(const ArgList& args, std::ostream& out, std::ostream& err) {
  // --fault-spec SPEC (or the PIPESCHED_FAULT_SPEC environment variable)
  // arms the fault-injection registry for the lifetime of this run. Scoped
  // so in-process reentry (tests driving runCli) never leaks an armed spec.
  std::string faultSpec;
  if (const auto spec = args.get("fault-spec")) {
    faultSpec = *spec;
  } else if (const char* env = std::getenv("PIPESCHED_FAULT_SPEC")) {
    faultSpec = env;
  }
  std::unique_ptr<fault::ScopedFaultSpec> faults;
  if (!faultSpec.empty()) {
    try {
      faults = std::make_unique<fault::ScopedFaultSpec>(faultSpec);
    } catch (const ModelError& error) {
      throw UsageError(error.what());
    }
  }
  if (const auto listen = args.get("listen")) {
    return serveListen(args, *listen, out, err);
  }
  return serveStdio(args, out, err);
}

/// Test seam: exactly what the SIGINT/SIGTERM handler does, callable from a
/// test thread without delivering a real signal.
void requestServeShutdown() { handleShutdownSignal(0); }

}  // namespace pipesched::cli::detail
