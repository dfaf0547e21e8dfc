// Service throughput bench: solves a generated multi-regime batch through
// SchedulingService at several thread counts, then measures the cache-hit
// speedup of a warm re-run. Emits both a human summary and the
// machine-readable BENCH_service.json tracking the perf trajectory:
//
//   {"benchmark":"perf_service","requests":200,
//    "throughput":[{"threads":1,"requests_per_second":...},...],
//    "speedup_max_threads_vs_1":...,
//    "cache":{"hit_ratio":...,"warm_requests_per_second":...,"warm_speedup":...},
//    "observability":{"warm_disabled_rps":...,"warm_enabled_rps":...,
//      "enabled_over_disabled":...},
//    "portfolio_members":{"members":"all","drop_after":4,
//      "requests_per_second":...,
//      "members_detail":[{"member":"H1-SpMonoP","runs":...,"points":...,
//                         "novel":...,"merged":...,"skipped":...,"dropped":...},...]},
//    "warm_sweep":{"requests":...,"narrow_points":P,"wide_points":2P-1,
//      "cold_seconds":...,"warm_seconds":...,"speedup":...,
//      "sub_hits":...,"sub_units_reused":...},
//    "net_serve":{"posts":R,"lines_per_post":K,"solves":R*K,
//      "http_requests_per_second":...,"inprocess_requests_per_second":...,
//      "http_over_inprocess":...,
//      "stats_scrape_mean_us":...,"stats_scrape_max_us":...,"shed":0}}
//
// The portfolio_members section races the full member catalog (refiners +
// c2c + exact) with budget-aware dropping on a slice of the batch and
// reports each member's per-member contribution columns.
//
// The net_serve section races the network transport against in-process
// scheduling on identical work: an in-process HttpServer + the serve
// endpoints on a loopback ephemeral port, a keep-alive client POSTing R
// bodies of K JSONL solve lines each, versus the same parsed requests
// pushed straight into an equally-configured AsyncScheduler. It also
// scrapes GET /stats once per POST while solves are in flight and reports
// the scrape round-trip latency — the cost of observing a busy server.
//
// The warm_sweep section measures cross-request work sharing: the same
// instances swept at P points, then at 2P-1 points over the same range —
// every narrow-grid threshold reappears in the wide grid, so a sub-result
// warm service solves only the 2P-1 minus P fresh thresholds. Reported
// speedup is cold wide-sweep wall over warm wide-sweep wall (same requests,
// byte-identical fronts).
//
// Usage: perf_service [--requests N] [--threads LIST] [--stages N]
//                     [--processors P] [--points N] [--seed S]
//                     [--members-requests N] [--drop-after K]
//                     [--warm-requests N] [--output FILE]
#include <algorithm>
#include <atomic>
#include <cctype>
#include <chrono>
#include <fstream>
#include <iostream>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "pipesched/io/json.hpp"
#include "pipesched/net/endpoints.hpp"
#include "pipesched/net/server.hpp"
#include "pipesched/net/socket.hpp"
#include "pipesched/obs/metrics.hpp"
#include "pipesched/obs/trace.hpp"
#include "pipesched/service/service.hpp"
#include "pipesched/stream/async_scheduler.hpp"
#include "pipesched/stream/source.hpp"
#include "pipesched/workload/generator.hpp"

namespace {

using namespace pipesched;

std::vector<service::Request> makeBatch(std::size_t requests, std::size_t stages,
                                        std::size_t processors, std::size_t points,
                                        std::uint64_t seed) {
  const workload::ExperimentKind kinds[] = {
      workload::ExperimentKind::kE1BalancedHomComm,
      workload::ExperimentKind::kE2BalancedHetComm,
      workload::ExperimentKind::kE3LargeComputations,
      workload::ExperimentKind::kE4SmallComputations,
  };
  workload::Rng rng(seed);
  std::vector<service::Request> batch;
  batch.reserve(requests);
  for (std::size_t i = 0; i < requests; ++i) {
    const workload::ExperimentKind kind = kinds[i % 4];
    workload::InstancePair pair = workload::randomInstance(kind, stages, processors, rng);
    std::ostringstream name;
    name << workload::experimentName(kind) << '-' << i;
    batch.push_back(service::Request{std::move(pair.pipeline), std::move(pair.platform),
                                     core::CommModel::kSequential,
                                     service::SweepSpec{points, 3}, name.str()});
  }
  return batch;
}

struct ThroughputSample {
  std::size_t threads = 0;
  double requestsPerSecond = 0;
  double wallSeconds = 0;
};

// -- net_serve helpers -------------------------------------------------------

/// Minimal blocking HTTP/1.1 client response reader (status + Content-Length
/// body) over a connectTcp socket — just enough to drive the bench's POST
/// /solve and GET /stats round trips without pulling in a client library.
struct NetResponse {
  int status = 0;
  std::string body;
};

NetResponse readNetResponse(net::Socket& socket) {
  std::string data;
  char buffer[8192];
  std::size_t headerEnd = std::string::npos;
  while ((headerEnd = data.find("\r\n\r\n")) == std::string::npos) {
    const net::IoResult r = socket.read(buffer, sizeof buffer);
    if (r.bytes == 0) throw std::runtime_error("net_serve: connection closed mid-headers");
    data.append(buffer, r.bytes);
  }
  NetResponse response;
  response.status = std::stoi(data.substr(data.find(' ') + 1, 3));
  std::size_t contentLength = 0;
  const std::string headers = data.substr(0, headerEnd);
  std::string lower = headers;
  for (char& c : lower) c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  if (const std::size_t at = lower.find("content-length:"); at != std::string::npos) {
    contentLength = std::stoul(lower.substr(at + 15));
  }
  response.body = data.substr(headerEnd + 4);
  while (response.body.size() < contentLength) {
    const net::IoResult r = socket.read(buffer, sizeof buffer);
    if (r.bytes == 0) throw std::runtime_error("net_serve: connection closed mid-body");
    response.body.append(buffer, r.bytes);
  }
  response.body.resize(contentLength);
  return response;
}

NetResponse roundTrip(net::Socket& socket, const std::string& method,
                      const std::string& target, const std::string& body) {
  std::string request = method + " " + target + " HTTP/1.1\r\nHost: bench\r\n";
  if (!body.empty() || method == "POST") {
    request += "Content-Length: " + std::to_string(body.size()) + "\r\n";
  }
  request += "\r\n" + body;
  socket.writeAll(request.data(), request.size());
  return readNetResponse(socket);
}

struct NetServeSample {
  std::size_t posts = 0;
  std::size_t linesPerPost = 0;
  std::size_t solves = 0;
  double httpRequestsPerSecond = 0;
  double inprocessRequestsPerSecond = 0;
  double httpOverInprocess = 0;
  double statsScrapeMeanUs = 0;
  double statsScrapeMaxUs = 0;
  std::uint64_t shed = 0;
};

/// One JSONL solve line per (post, slot) pair — seeds never repeat, so no
/// pass gets accidental cache traffic.
std::string solveBody(std::size_t post, std::size_t lines, std::size_t stages,
                      std::size_t processors, std::size_t points) {
  std::ostringstream body;
  const char* kinds[] = {"E1", "E2", "E3", "E4"};
  for (std::size_t i = 0; i < lines; ++i) {
    body << "{\"kind\":\"" << kinds[i % 4] << "\",\"stages\":" << stages
         << ",\"processors\":" << processors << ",\"points\":" << points
         << ",\"seed\":" << (1000 + post * lines + i) << "}\n";
  }
  return std::move(body).str();
}

NetServeSample netServeRun(std::size_t posts, std::size_t linesPerPost, std::size_t stages,
                           std::size_t processors, std::size_t points,
                           std::size_t workers) {
  NetServeSample sample;
  sample.posts = posts;
  sample.linesPerPost = linesPerPost;
  sample.solves = posts * linesPerPost;

  std::vector<std::string> bodies;
  for (std::size_t post = 0; post < posts; ++post) {
    bodies.push_back(solveBody(post, linesPerPost, stages, processors, points));
  }

  // HTTP pass: loopback server, one keep-alive connection POSTing each body,
  // plus one /stats scrape per POST from a second connection while the
  // solves are in flight.
  {
    stream::StreamConfig config;
    config.service.threads = workers;
    config.queueCapacity = std::max<std::size_t>(64, linesPerPost * 2);
    stream::AsyncScheduler scheduler(config);
    net::HttpServerConfig serverConfig;
    serverConfig.endpoint = net::Endpoint{"127.0.0.1", 0};
    net::HttpServer server(serverConfig);
    net::ServeEndpointsConfig endpoints;
    endpoints.statsSnapshot = [] { return std::string("{\"type\":\"stats\"}"); };
    endpoints.draining = [&server] { return server.draining(); };
    endpoints.uptimeSeconds = [] { return 0.0; };
    net::installServeEndpoints(server, scheduler, endpoints);
    server.bind();
    std::thread loop([&server] { server.run(); });

    net::Socket solveConn = net::connectTcp(server.local());
    net::Socket statsConn = net::connectTcp(server.local());

    double scrapeTotalUs = 0;
    const auto start = std::chrono::steady_clock::now();
    for (std::size_t post = 0; post < posts; ++post) {
      // Fire the POST, scrape /stats while its solves run, then collect the
      // POST response off the keep-alive connection.
      const std::string request = "POST /solve HTTP/1.1\r\nHost: bench\r\nContent-Length: " +
                                  std::to_string(bodies[post].size()) + "\r\n\r\n" +
                                  bodies[post];
      solveConn.writeAll(request.data(), request.size());

      const auto scrapeStart = std::chrono::steady_clock::now();
      const NetResponse stats = roundTrip(statsConn, "GET", "/stats", "");
      const double scrapeUs = std::chrono::duration<double, std::micro>(
                                  std::chrono::steady_clock::now() - scrapeStart)
                                  .count();
      scrapeTotalUs += scrapeUs;
      sample.statsScrapeMaxUs = std::max(sample.statsScrapeMaxUs, scrapeUs);
      if (stats.status != 200) throw std::runtime_error("net_serve: /stats failed");

      const NetResponse response = readNetResponse(solveConn);
      if (response.status != 200) {
        throw std::runtime_error("net_serve: POST /solve answered " +
                                 std::to_string(response.status));
      }
      std::size_t ok = 0;
      for (std::size_t at = response.body.find("\"ok\":true"); at != std::string::npos;
           at = response.body.find("\"ok\":true", at + 1)) {
        ++ok;
      }
      if (ok != linesPerPost) {
        throw std::runtime_error("net_serve: expected " + std::to_string(linesPerPost) +
                                 " ok outcomes, got " + std::to_string(ok));
      }
    }
    const double wall =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
    sample.httpRequestsPerSecond = wall > 0 ? static_cast<double>(sample.solves) / wall : 0;
    sample.statsScrapeMeanUs = posts > 0 ? scrapeTotalUs / static_cast<double>(posts) : 0;
    sample.shed = server.stats().shed;

    server.requestStop();
    loop.join();
    scheduler.close();
  }

  // In-process reference: the same lines parsed the same way, submitted
  // straight into an identically-configured scheduler — the transport-free
  // ceiling for the HTTP number.
  {
    stream::StreamConfig config;
    config.service.threads = workers;
    config.queueCapacity = std::max<std::size_t>(64, linesPerPost * 2);
    stream::AsyncScheduler scheduler(config);

    std::vector<service::Request> requests;
    for (const std::string& body : bodies) {
      auto in = std::make_unique<std::istringstream>(body);
      stream::JsonlSource source(std::move(in), stream::JsonlDefaults{});
      while (std::optional<service::Request> request = source.next()) {
        requests.push_back(std::move(*request));
      }
    }
    if (requests.size() != sample.solves) {
      throw std::runtime_error("net_serve: reference parse mismatch");
    }

    std::atomic<std::size_t> done{0};
    const auto start = std::chrono::steady_clock::now();
    for (service::Request& request : requests) {
      scheduler.submit(std::move(request),
                       [&done](const service::Request&, const service::RequestOutcome&) {
                         done.fetch_add(1);
                       });
    }
    scheduler.drain();
    const double wall =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
    if (done.load() != sample.solves) {
      throw std::runtime_error("net_serve: reference drain incomplete");
    }
    sample.inprocessRequestsPerSecond =
        wall > 0 ? static_cast<double>(sample.solves) / wall : 0;
    scheduler.close();
  }

  sample.httpOverInprocess = sample.inprocessRequestsPerSecond > 0
                                 ? sample.httpRequestsPerSecond /
                                       sample.inprocessRequestsPerSecond
                                 : 1.0;
  return sample;
}

ThroughputSample coldRun(const std::vector<service::Request>& batch, std::size_t threads) {
  service::ServiceConfig config;
  config.threads = threads;
  config.cacheCapacity = 0;  // cold: measure pure solver throughput
  service::SchedulingService svc(config);
  const service::BatchResult result = svc.solveBatch(batch);
  if (result.stats.failed != 0) {
    throw std::runtime_error("perf_service: " + std::to_string(result.stats.failed) +
                             " request(s) failed");
  }
  return {threads, result.stats.requestsPerSecond, result.stats.wallSeconds};
}

}  // namespace

int main(int argc, char** argv) {
  std::size_t requests = 200;
  std::size_t stages = 12;
  std::size_t processors = 10;
  std::size_t points = 12;
  std::uint64_t seed = 20070628;
  std::vector<std::size_t> threadCounts = {1, 2, 4};
  std::size_t membersRequests = 40;
  std::size_t dropAfter = 4;
  std::size_t warmRequests = 24;
  std::string output = "BENCH_service.json";
  const auto usage = [&] {
    std::cerr << "usage: " << argv[0]
              << " [--requests N] [--threads LIST] [--stages N] [--processors P]"
                 " [--points N] [--seed S] [--members-requests N] [--drop-after K]"
                 " [--warm-requests N] [--output FILE]\n";
    return 2;
  };
  try {
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      const auto next = [&]() -> std::string {
        if (i + 1 >= argc) throw std::runtime_error("missing value for " + arg);
        return argv[++i];
      };
      if (arg == "--requests") requests = std::stoul(next());
      else if (arg == "--stages") stages = std::stoul(next());
      else if (arg == "--processors") processors = std::stoul(next());
      else if (arg == "--points") points = std::stoul(next());
      else if (arg == "--seed") seed = std::stoull(next());
      else if (arg == "--members-requests") membersRequests = std::stoul(next());
      else if (arg == "--drop-after") dropAfter = std::stoul(next());
      else if (arg == "--warm-requests") warmRequests = std::stoul(next());
      else if (arg == "--output") output = next();
      else if (arg == "--threads") {
        threadCounts.clear();
        std::stringstream ss(next());
        std::string token;
        while (std::getline(ss, token, ',')) threadCounts.push_back(std::stoul(token));
      } else {
        return usage();
      }
    }
  } catch (const std::exception& e) {
    std::cerr << "perf_service: " << e.what() << "\n";
    return usage();
  }
  if (requests == 0 || threadCounts.empty()) {
    std::cerr << "perf_service: --requests and --threads must be non-empty\n";
    return usage();
  }

  const std::vector<service::Request> batch =
      makeBatch(requests, stages, processors, points, seed);
  std::cout << "perf_service: " << requests << " requests (" << stages << " stages, "
            << processors << " processors, " << points << " sweep points)\n";

  std::vector<ThroughputSample> samples;
  for (const std::size_t threads : threadCounts) {
    const ThroughputSample s = coldRun(batch, threads);
    samples.push_back(s);
    std::cout << "  threads=" << s.threads << ": " << s.requestsPerSecond << " req/s ("
              << s.wallSeconds << " s)\n";
  }
  const double speedup =
      samples.size() > 1 && samples.front().requestsPerSecond > 0
          ? samples.back().requestsPerSecond / samples.front().requestsPerSecond
          : 1.0;
  std::cout << "  speedup " << samples.back().threads << "t vs " << samples.front().threads
            << "t: " << speedup << "x\n";

  // Cache-hit speedup: same service, same batch twice; the second pass is
  // pure cache traffic.
  service::ServiceConfig warmConfig;
  warmConfig.threads = samples.back().threads;
  warmConfig.cacheCapacity = requests * 2;
  service::SchedulingService warmSvc(warmConfig);
  const service::BatchResult coldPass = warmSvc.solveBatch(batch);
  const service::BatchResult warmPass = warmSvc.solveBatch(batch);
  const service::CacheStats cacheStats = warmSvc.cacheStats();
  const double warmSpeedup = coldPass.stats.wallSeconds > 0 && warmPass.stats.wallSeconds > 0
                                 ? coldPass.stats.wallSeconds / warmPass.stats.wallSeconds
                                 : 1.0;
  const double hitRatio =
      warmPass.stats.requests > 0
          ? static_cast<double>(warmPass.stats.cacheHits + warmPass.stats.deduped) /
                static_cast<double>(warmPass.stats.requests)
          : 0.0;
  std::cout << "  warm pass: " << warmPass.stats.requestsPerSecond << " req/s, hit ratio "
            << hitRatio << ", speedup vs cold " << warmSpeedup << "x\n";

  // Observability overhead: the same warm all-cache-hit batch with metrics +
  // tracing fully enabled vs fully disabled. Cache hits are the cheapest
  // requests the service serves, so this pass is the worst case for relative
  // instrumentation cost. Each pass takes a few milliseconds, so host drift
  // between two back-to-back phases could swamp the difference: the modes
  // are interleaved rep by rep, alternating which goes first, and each keeps
  // its best rep.
  const auto warmObsRps = [&](bool enabled) {
    obs::ScopedMetricsEnabled metricsScope(enabled);
    obs::ScopedTracingEnabled tracingScope(enabled);
    return warmSvc.solveBatch(batch).stats.requestsPerSecond;
  };
  double warmDisabledRps = 0.0;
  double warmEnabledRps = 0.0;
  for (int rep = 0; rep < 6; ++rep) {
    const bool enabledFirst = rep % 2 == 1;
    for (const bool enabled : {enabledFirst, !enabledFirst}) {
      double& best = enabled ? warmEnabledRps : warmDisabledRps;
      best = std::max(best, warmObsRps(enabled));
    }
  }
  const double enabledOverDisabled =
      warmDisabledRps > 0 ? warmEnabledRps / warmDisabledRps : 1.0;
  std::cout << "  observability: warm disabled " << warmDisabledRps << " req/s, enabled "
            << warmEnabledRps << " req/s (ratio " << enabledOverDisabled << ")\n";

  // Widened-portfolio contribution pass: the full member catalog with
  // budget-aware dropping on a slice of the batch, reported member by member.
  service::ServiceConfig wideConfig;
  wideConfig.threads = 1;
  wideConfig.cacheCapacity = 0;
  wideConfig.portfolio.members = service::allPortfolioMembers();
  wideConfig.portfolio.dropAfter = dropAfter;
  service::SchedulingService wideSvc(wideConfig);
  const std::vector<service::Request> wideBatch(
      batch.begin(),
      batch.begin() + static_cast<std::ptrdiff_t>(std::min(membersRequests, batch.size())));
  const service::BatchResult widePass = wideSvc.solveBatch(wideBatch);
  std::cout << "  members=all (" << wideBatch.size() << " requests, drop-after " << dropAfter
            << "): " << widePass.stats.requestsPerSecond << " req/s\n";
  for (const service::MemberBatchStats& m : widePass.stats.members) {
    std::cout << "    " << m.solver << ": " << m.points << " pts, " << m.merged << " merged, "
              << m.skipped << " skipped\n";
  }

  // Warm-sweep pass (cross-request work sharing): the same instances swept
  // narrow (P points) then wide (2P-1 points, same range — the narrow grid
  // is a sub-grid of the wide one). Cold reference: a sharing-off service
  // solving the wide sweep from scratch.
  const std::size_t narrowPoints = std::max<std::size_t>(points, 2);
  const std::size_t widePoints = 2 * narrowPoints - 1;
  std::vector<service::Request> narrowBatch(
      batch.begin(),
      batch.begin() + static_cast<std::ptrdiff_t>(std::min(warmRequests, batch.size())));
  std::vector<service::Request> wideBatch2 = narrowBatch;
  for (service::Request& r : narrowBatch) r.sweep = service::SweepSpec{narrowPoints, 3};
  for (service::Request& r : wideBatch2) r.sweep = service::SweepSpec{widePoints, 3};

  service::ServiceConfig warmSweepConfig;
  warmSweepConfig.threads = 1;
  warmSweepConfig.cacheCapacity = 0;
  service::ServiceConfig coldSweepConfig = warmSweepConfig;
  coldSweepConfig.subCacheCapacity = 0;  // no sub-result sharing
  service::SchedulingService coldSweepSvc(coldSweepConfig);
  const service::BatchResult coldWide = coldSweepSvc.solveBatch(wideBatch2);

  service::SchedulingService warmSweepSvc(warmSweepConfig);
  (void)warmSweepSvc.solveBatch(narrowBatch);  // populate the sub-result cache
  const service::BatchResult warmWide = warmSweepSvc.solveBatch(wideBatch2);
  const double warmSweepSpeedup =
      coldWide.stats.wallSeconds > 0 && warmWide.stats.wallSeconds > 0
          ? coldWide.stats.wallSeconds / warmWide.stats.wallSeconds
          : 1.0;
  std::cout << "  warm sweep (" << narrowBatch.size() << " instances, " << narrowPoints
            << " -> " << widePoints << " points): cold " << coldWide.stats.wallSeconds
            << " s, warm " << warmWide.stats.wallSeconds << " s, speedup " << warmSweepSpeedup
            << "x (" << warmWide.stats.subUnitsReused << " unit(s) reused)\n";

  // Network transport pass: loopback HTTP /solve vs in-process submission on
  // identical work, with /stats scraped under load. Sized well below the
  // cold batch so the whole section stays a small slice of bench wall time.
  const NetServeSample netServe =
      netServeRun(/*posts=*/6, /*linesPerPost=*/8, std::max<std::size_t>(stages / 2, 4),
                  processors, points, samples.back().threads);
  std::cout << "  net serve (" << netServe.posts << " posts x " << netServe.linesPerPost
            << " lines): http " << netServe.httpRequestsPerSecond << " req/s vs in-process "
            << netServe.inprocessRequestsPerSecond << " req/s (ratio "
            << netServe.httpOverInprocess << "), /stats scrape mean "
            << netServe.statsScrapeMeanUs << " us / max " << netServe.statsScrapeMaxUs
            << " us, " << netServe.shed << " shed\n";

  std::ofstream os(output);
  if (!os) {
    std::cerr << "cannot write " << output << "\n";
    return 1;
  }
  io::JsonWriter w(os, /*pretty=*/true);
  w.beginObject();
  w.kv("benchmark", "perf_service");
  w.kv("requests", requests);
  w.kv("stages", stages);
  w.kv("processors", processors);
  w.kv("sweep_points", points);
  w.key("throughput").beginArray();
  for (const ThroughputSample& s : samples) {
    w.beginObject();
    w.kv("threads", s.threads);
    w.kv("requests_per_second", s.requestsPerSecond);
    w.kv("wall_seconds", s.wallSeconds);
    w.endObject();
  }
  w.endArray();
  w.kv("speedup_max_threads_vs_1", speedup);
  w.key("cache").beginObject();
  w.kv("hit_ratio", hitRatio);
  w.kv("warm_requests_per_second", warmPass.stats.requestsPerSecond);
  w.kv("warm_speedup", warmSpeedup);
  w.kv("entries", cacheStats.entries);
  w.endObject();
  w.key("observability").beginObject();
  w.kv("warm_disabled_rps", warmDisabledRps);
  w.kv("warm_enabled_rps", warmEnabledRps);
  w.kv("enabled_over_disabled", enabledOverDisabled);
  w.endObject();
  w.key("portfolio_members").beginObject();
  w.kv("members", "all");
  w.kv("drop_after", dropAfter);
  w.kv("requests", wideBatch.size());
  w.kv("requests_per_second", widePass.stats.requestsPerSecond);
  w.key("members_detail").beginArray();
  for (const service::MemberBatchStats& m : widePass.stats.members) {
    w.beginObject();
    w.kv("member", m.solver);
    w.kv("runs", static_cast<std::size_t>(m.runs));
    w.kv("points", static_cast<std::size_t>(m.points));
    w.kv("novel", static_cast<std::size_t>(m.novel));
    w.kv("merged", static_cast<std::size_t>(m.merged));
    w.kv("skipped", static_cast<std::size_t>(m.skipped));
    w.kv("dropped", static_cast<std::size_t>(m.dropped));
    w.endObject();
  }
  w.endArray();
  w.endObject();
  w.key("warm_sweep").beginObject();
  w.kv("requests", narrowBatch.size());
  w.kv("narrow_points", narrowPoints);
  w.kv("wide_points", widePoints);
  w.kv("cold_seconds", coldWide.stats.wallSeconds);
  w.kv("warm_seconds", warmWide.stats.wallSeconds);
  w.kv("speedup", warmSweepSpeedup);
  w.kv("sub_hits", static_cast<std::size_t>(warmWide.stats.subHits));
  w.kv("sub_units_reused", static_cast<std::size_t>(warmWide.stats.subUnitsReused));
  w.endObject();
  w.key("net_serve").beginObject();
  w.kv("posts", netServe.posts);
  w.kv("lines_per_post", netServe.linesPerPost);
  w.kv("solves", netServe.solves);
  w.kv("http_requests_per_second", netServe.httpRequestsPerSecond);
  w.kv("inprocess_requests_per_second", netServe.inprocessRequestsPerSecond);
  w.kv("http_over_inprocess", netServe.httpOverInprocess);
  w.kv("stats_scrape_mean_us", netServe.statsScrapeMeanUs);
  w.kv("stats_scrape_max_us", netServe.statsScrapeMaxUs);
  w.kv("shed", static_cast<std::size_t>(netServe.shed));
  w.endObject();
  w.endObject();
  os << "\n";
  std::cout << "wrote " << output << "\n";
  return 0;
}
