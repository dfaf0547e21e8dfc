// The serve HTTP surface end to end: POST /solve byte-identity with stdio
// serve, admission-control shedding (503 + counters), and the /stats,
// /healthz, /metrics read endpoints — all against an in-process HttpServer
// wired to a real AsyncScheduler.
#include "pipesched/net/endpoints.hpp"

#include <gtest/gtest.h>

#include <chrono>
#include <condition_variable>
#include <fstream>
#include <memory>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>

#include "../cli/cli_test_util.hpp"
#include "net_test_util.hpp"
#include "pipesched/net/server.hpp"
#include "pipesched/obs/metrics.hpp"
#include "pipesched/obs/trace.hpp"
#include "pipesched/stream/async_scheduler.hpp"

namespace pipesched::net {
namespace {

using testutil::ClientResponse;
using testutil::fetch;

constexpr const char* kBody =
    "{\"kind\":\"E1\",\"stages\":4,\"processors\":3,\"seed\":1}\n"
    "not json at all\n"
    "{\"kind\":\"E2\",\"stages\":5,\"processors\":4,\"seed\":2}\n";

/// In-process serving stack: scheduler + server + endpoints + run() thread.
class EndpointsFixture {
 public:
  explicit EndpointsFixture(stream::StreamConfig config = makeDefaultConfig(),
                            HttpServerConfig serverConfig = {}) {
    scheduler_ = std::make_unique<stream::AsyncScheduler>(config);
    serverConfig.endpoint = Endpoint{"127.0.0.1", 0};
    server_ = std::make_unique<HttpServer>(serverConfig);
    ServeEndpointsConfig endpoints;
    endpoints.statsSnapshot = [] { return std::string("{\"type\":\"stats\"}"); };
    endpoints.draining = [this] { return server_->draining(); };
    endpoints.uptimeSeconds = [] { return 1.5; };
    installServeEndpoints(*server_, *scheduler_, endpoints);
    server_->bind();
    thread_ = std::thread([this] { server_->run(); });
  }

  ~EndpointsFixture() {
    server_->requestStop();
    thread_.join();
    scheduler_->close();
  }

  static stream::StreamConfig makeDefaultConfig() {
    stream::StreamConfig config;
    config.service.threads = 2;
    return config;
  }

  Endpoint endpoint() const { return server_->local(); }
  HttpServer& server() { return *server_; }

 private:
  std::unique_ptr<stream::AsyncScheduler> scheduler_;
  std::unique_ptr<HttpServer> server_;
  std::thread thread_;
};

TEST(ServeEndpoints, SolveBodyIsByteIdenticalToStdioServe) {
  // Reference: the stdio transport over the same three lines (one of them
  // malformed), single-threaded so outcome order is the input order on a
  // fresh scheduler — exactly the conditions the HTTP body promises.
  namespace cli = pipesched::cli::testutil;
  const std::string input = cli::tempPath("net_solve_input.jsonl");
  {
    std::ofstream f(input);
    f << kBody;
  }
  const cli::RunResult stdio = cli::run({"serve", "--input", input, "--serial"});

  EndpointsFixture fixture;
  const ClientResponse r = fetch(fixture.endpoint(), "POST", "/solve", kBody);
  EXPECT_EQ(r.status, 200);
  EXPECT_EQ(r.body, stdio.out);
  EXPECT_NE(r.body.find("\"line\":2,\"ok\":false"), std::string::npos);
}

TEST(ServeEndpoints, EmptyAndAllMalformedBodiesAnswerImmediately) {
  EndpointsFixture fixture;
  const ClientResponse empty = fetch(fixture.endpoint(), "POST", "/solve", "");
  EXPECT_EQ(empty.status, 200);
  EXPECT_EQ(empty.body, "");

  const ClientResponse garbage = fetch(fixture.endpoint(), "POST", "/solve", "nope\n");
  EXPECT_EQ(garbage.status, 200);
  EXPECT_NE(garbage.body.find("\"ok\":false"), std::string::npos);
}

TEST(ServeEndpoints, SaturatedQueueShedsWith503) {
  // One worker parked inside a solve on a latch + capacity-1 queue: the
  // third submit of a POST cannot be admitted, so the whole POST sheds.
  std::mutex mutex;
  std::condition_variable cv;
  bool release = false;

  stream::StreamConfig config;
  config.service.threads = 1;
  config.queueCapacity = 1;
  config.maxCoalescedWaiters = 0;
  config.solveOverride = [&](const service::Request&) -> service::RequestOutcome {
    std::unique_lock<std::mutex> lock(mutex);
    cv.wait(lock, [&] { return release; });
    service::RequestOutcome outcome;
    outcome.ok = false;
    outcome.error = "latched";
    return outcome;
  };

  std::uint64_t shedBefore = 0;
  {
    EndpointsFixture fixture(config);
    shedBefore = fixture.server().stats().shed;

    // Distinct seeds so coalescing can't merge them; enough lines that the
    // worker (1) + queue (1) can't hold them all.
    std::string body;
    for (int seed = 1; seed <= 4; ++seed) {
      body += "{\"kind\":\"E1\",\"stages\":4,\"processors\":3,\"seed\":" +
              std::to_string(seed) + "}\n";
    }
    const ClientResponse r = fetch(fixture.endpoint(), "POST", "/solve", body);
    EXPECT_EQ(r.status, 503);
    EXPECT_EQ(fixture.server().stats().shed, shedBefore + 1);

    {
      std::lock_guard<std::mutex> lock(mutex);
      release = true;
    }
    cv.notify_all();
    // Fixture teardown drains the abandoned solves.
  }
}

TEST(ServeEndpoints, StatsHealthzAndMetricsAnswer) {
  obs::ScopedMetricsEnabled metricsOn(true);
  EndpointsFixture fixture;

  const ClientResponse stats = fetch(fixture.endpoint(), "GET", "/stats");
  EXPECT_EQ(stats.status, 200);
  EXPECT_EQ(stats.body, "{\"type\":\"stats\"}\n");
  EXPECT_EQ(stats.headers.at("content-type"), "application/json");

  const ClientResponse health = fetch(fixture.endpoint(), "GET", "/healthz");
  EXPECT_EQ(health.status, 200);
  EXPECT_NE(health.body.find("\"status\":\"ok\""), std::string::npos);
  EXPECT_NE(health.body.find("\"draining\":false"), std::string::npos);
  EXPECT_NE(health.body.find("\"uptime_seconds\":1.5"), std::string::npos);

  const ClientResponse metrics = fetch(fixture.endpoint(), "GET", "/metrics");
  EXPECT_EQ(metrics.status, 200);
  EXPECT_EQ(metrics.headers.at("content-type"), "text/plain; version=0.0.4");
  // The transport instruments itself: by the time /metrics renders, the
  // earlier requests on this fixture have been counted.
  EXPECT_NE(metrics.body.find("pipesched_net_http_requests"), std::string::npos);
  EXPECT_NE(metrics.body.find("# TYPE pipesched_net_connections_accepted counter"),
            std::string::npos);
}

TEST(ServeEndpoints, SolveRendersOutcomesInsideTheEmitStage) {
  // stage.emit covers the HTTP outcome render too, not only the stdio sink:
  // one POST with two well-formed lines records two emit spans, all before
  // the response is sent.
  obs::ScopedMetricsEnabled metricsOn(true);
  EndpointsFixture fixture;
  const std::uint64_t before = obs::stageHistogram(obs::Stage::kEmit).snapshot().count;
  const ClientResponse r = fetch(fixture.endpoint(), "POST", "/solve", kBody);
  EXPECT_EQ(r.status, 200);
  EXPECT_EQ(obs::stageHistogram(obs::Stage::kEmit).snapshot().count, before + 2);
}

TEST(ServeEndpoints, MalformedDeadlineHeaderAnswers400) {
  EndpointsFixture fixture;
  const ClientResponse bad = fetch(fixture.endpoint(), "POST", "/solve", kBody,
                                   "X-Deadline-Ms: soon\r\n");
  EXPECT_EQ(bad.status, 400);
  const ClientResponse negative = fetch(fixture.endpoint(), "POST", "/solve", kBody,
                                        "X-Deadline-Ms: -5\r\n");
  EXPECT_EQ(negative.status, 400);
  // 0 disables the default deadline — a valid, full solve.
  const ClientResponse zero = fetch(fixture.endpoint(), "POST", "/solve", kBody,
                                    "X-Deadline-Ms: 0\r\n");
  EXPECT_EQ(zero.status, 200);
}

TEST(ServeEndpoints, WholeBatchPastDeadlineAnswers504) {
  // One worker latched inside a blocker solve; a deadlined POST queues behind
  // it and expires before the worker frees. Every solvable line times out, so
  // the whole POST answers 504 with per-line {"ok":false,"timed_out":true}.
  std::mutex mutex;
  std::condition_variable cv;
  bool entered = false;
  bool release = false;

  stream::StreamConfig config;
  config.service.threads = 1;
  config.queueCapacity = 8;
  config.solveOverride = [&](const service::Request& request) -> service::RequestOutcome {
    service::RequestOutcome outcome;
    if (request.name == "blocker") {
      std::unique_lock<std::mutex> lock(mutex);
      entered = true;
      cv.notify_all();
      cv.wait(lock, [&] { return release; });
    }
    outcome.ok = true;
    return outcome;
  };

  EndpointsFixture fixture(config);
  std::thread blocker([&] {
    const ClientResponse r = fetch(
        fixture.endpoint(), "POST", "/solve",
        "{\"kind\":\"E1\",\"stages\":4,\"processors\":3,\"seed\":9,\"name\":\"blocker\"}\n");
    EXPECT_EQ(r.status, 200);
  });
  {
    std::unique_lock<std::mutex> lock(mutex);
    ASSERT_TRUE(cv.wait_for(lock, std::chrono::seconds(5), [&] { return entered; }));
  }
  // Release the latch only after the deadlined lines are sure to be expired.
  std::thread releaser([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(200));
    std::lock_guard<std::mutex> lock(mutex);
    release = true;
    cv.notify_all();
  });

  const std::string body =
      "{\"kind\":\"E1\",\"stages\":4,\"processors\":3,\"seed\":1}\n"
      "{\"kind\":\"E2\",\"stages\":5,\"processors\":4,\"seed\":2}\n";
  const ClientResponse r =
      fetch(fixture.endpoint(), "POST", "/solve", body, "X-Deadline-Ms: 50\r\n");
  blocker.join();
  releaser.join();

  EXPECT_EQ(r.status, 504);
  EXPECT_NE(r.body.find("\"timed_out\":true"), std::string::npos);
  EXPECT_NE(r.body.find("deadline exceeded"), std::string::npos);
  // Both lines still got their outcome line — degraded, never silent.
  EXPECT_NE(r.body.find("\"line\":1"), std::string::npos);
  EXPECT_NE(r.body.find("\"line\":2"), std::string::npos);
}

TEST(ServeEndpoints, TimeoutCounterStaysUntouchedWithMetricsOff) {
  // net.timeout_total is a registry metric like every other: with metrics
  // off a timed-out POST still answers 504 but records nothing.
  obs::registry().reset();
  obs::ScopedMetricsEnabled metricsOff(false);
  EndpointsFixture fixture;
  // A 1 ns deadline has passed before any worker reaches the request.
  const ClientResponse r = fetch(
      fixture.endpoint(), "POST", "/solve",
      "{\"kind\":\"E1\",\"stages\":4,\"processors\":3,\"seed\":1,"
      "\"deadline_ms\":0.000001}\n");
  EXPECT_EQ(r.status, 504);
  EXPECT_NE(r.body.find("\"timed_out\":true"), std::string::npos);
  EXPECT_EQ(obs::registry().counter(obs::names::kNetTimeout).value(), 0u);
}

TEST(ServeEndpoints, MethodMismatchesAreRejected) {
  EndpointsFixture fixture;
  EXPECT_EQ(fetch(fixture.endpoint(), "GET", "/solve").status, 405);
  EXPECT_EQ(fetch(fixture.endpoint(), "POST", "/metrics", "x").status, 405);
  EXPECT_EQ(fetch(fixture.endpoint(), "GET", "/nothing-here").status, 404);
}

}  // namespace
}  // namespace pipesched::net
