// Chaos suite: the full serving stack (HttpServer + AsyncScheduler +
// installServeEndpoints) under deliberate adversity — armed fault storms,
// sub-solve deadlines on a saturated queue, shed floods, and stalled
// clients racing healthy traffic. The contract under test is uniform:
// the server never hangs, never crashes, answers every surviving
// connection with a complete response whose status is one of the
// documented codes, and still drains cleanly afterwards.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "../net/net_test_util.hpp"
#include "pipesched/fault/fault.hpp"
#include "pipesched/net/endpoints.hpp"
#include "pipesched/net/server.hpp"
#include "pipesched/stream/async_scheduler.hpp"

namespace pipesched::net {
namespace {

/// Serving stack on a loopback port, mirroring cmd_serve's wiring.
class ChaosFixture {
 public:
  explicit ChaosFixture(stream::StreamConfig config, HttpServerConfig serverConfig = {}) {
    scheduler_ = std::make_unique<stream::AsyncScheduler>(config);
    serverConfig.endpoint = Endpoint{"127.0.0.1", 0};
    server_ = std::make_unique<HttpServer>(serverConfig);
    ServeEndpointsConfig endpoints;
    endpoints.statsSnapshot = [] { return std::string("{\"type\":\"stats\"}"); };
    endpoints.draining = [this] { return server_->draining(); };
    installServeEndpoints(*server_, *scheduler_, endpoints);
    server_->bind();
    thread_ = std::thread([this] { server_->run(); });
  }

  ~ChaosFixture() { stop(); }

  /// Graceful drain; the join itself is the "run() returns" assertion —
  /// a hang here trips the suite timeout, which is the failure mode chaos
  /// is hunting for.
  void stop() {
    if (!thread_.joinable()) return;
    server_->requestStop();
    thread_.join();
    scheduler_->close();
  }

  Endpoint endpoint() const { return server_->local(); }
  HttpServer& server() { return *server_; }

 private:
  std::unique_ptr<stream::AsyncScheduler> scheduler_;
  std::unique_ptr<HttpServer> server_;
  std::thread thread_;
};

/// What one chaos client observed. A connection that died without a full
/// response is legal under an armed fault storm; a *partial* status line
/// or a hang is not.
struct ChaosOutcome {
  bool connected = false;
  bool completeResponse = false;
  int status = 0;
};

/// Fault-tolerant one-shot client: unlike testutil::fetch it never fails
/// the test on a dead connection — it reports what it saw. Bounded by a
/// wall-clock budget so a silent server surfaces as completeResponse=false
/// instead of a suite hang.
ChaosOutcome chaosFetch(const Endpoint& endpoint, const std::string& raw,
                        std::chrono::milliseconds budget = std::chrono::seconds(10)) {
  ChaosOutcome outcome;
  const auto deadline = std::chrono::steady_clock::now() + budget;
  try {
    Socket socket = connectTcp(endpoint, 2000);
    outcome.connected = true;
    std::size_t sent = 0;
    while (sent < raw.size()) {
      const IoResult w = socket.write(raw.data() + sent, raw.size() - sent);
      if (w.bytes > 0) {
        sent += w.bytes;
        continue;
      }
      if (w.wouldBlock) continue;
      return outcome;  // injected client-side write fault or dead peer
    }

    std::string data;
    char buffer[4096];
    std::size_t headerEnd = std::string::npos;
    std::size_t bodyStart = 0;
    std::size_t contentLength = 0;
    for (;;) {
      if (std::chrono::steady_clock::now() > deadline) return outcome;
      if (headerEnd == std::string::npos &&
          (headerEnd = data.find("\r\n\r\n")) != std::string::npos) {
        bodyStart = headerEnd + 4;
        const std::size_t label = data.find("Content-Length:");
        if (label != std::string::npos && label < headerEnd) {
          contentLength = std::stoul(data.substr(label + 15));
        }
      }
      if (headerEnd != std::string::npos && data.size() - bodyStart >= contentLength) {
        break;
      }
      const IoResult r = socket.read(buffer, sizeof buffer);
      if (r.bytes > 0) {
        data.append(buffer, r.bytes);
        continue;
      }
      if (r.wouldBlock) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
        continue;
      }
      return outcome;  // closed or injected fault mid-response
    }
    outcome.completeResponse = true;
    outcome.status = std::stoi(data.substr(data.find(' ') + 1, 3));
  } catch (const std::exception&) {
    // connect itself failed (accept fault, connect timeout): not connected.
  }
  return outcome;
}

std::string solveBody(int seed, int lines = 2, std::size_t stages = 6,
                      std::size_t processors = 4) {
  std::string body;
  for (int i = 0; i < lines; ++i) {
    body += "{\"kind\":\"E1\",\"stages\":" + std::to_string(stages) +
            ",\"processors\":" + std::to_string(processors) +
            ",\"seed\":" + std::to_string(seed * 100 + i) + "}\n";
  }
  return body;
}

bool isDocumentedStatus(int status) {
  return status == 200 || status == 400 || status == 404 || status == 408 ||
         status == 503 || status == 504;
}

/// The tentpole acceptance storm: probabilistic faults armed across every
/// layer (socket reads/writes, accept, HTTP parsing, scheduler admission,
/// portfolio members) while a pool of clients throws valid solves, garbage
/// bytes, and rude disconnects at the server. Any connection may die —
/// but every response that does arrive must be complete and carry a
/// documented status, and after the storm the untouched stack must still
/// serve and drain.
TEST(StressChaos, FaultStormedStackStaysUpAndAnswersInDocumentedStatuses) {
  stream::StreamConfig config;
  config.service.threads = 3;
  config.queueCapacity = 16;
  HttpServerConfig serverConfig;
  serverConfig.pollTimeoutMs = 20;
  serverConfig.requestTimeoutMs = 400;  // unstick clients whose request bytes
  serverConfig.idleTimeoutMs = 400;     // were eaten by an injected fault
  ChaosFixture fixture(config, serverConfig);

  std::atomic<std::uint64_t> complete{0};
  std::atomic<std::uint64_t> undocumented{0};
  std::atomic<std::uint64_t> dead{0};
  {
    fault::ScopedFaultSpec storm(
        "net.read=p:0.02;net.write=p:0.02;net.accept=p:0.05;"
        "http.parse=p:0.05;sched.submit=p:0.15;member.*=p:0.3");
    std::vector<std::thread> clients;
    for (int c = 0; c < 6; ++c) {
      clients.emplace_back([&, c] {
        for (int i = 0; i < 12; ++i) {
          std::string raw;
          switch ((c + i) % 4) {
            case 0:
              raw = testutil::renderRequest("POST", "/solve", solveBody(c * 16 + i));
              break;
            case 1:
              raw = testutil::renderRequest("POST", "/solve", solveBody(c * 16 + i, 1),
                                            "X-Deadline-Ms: 50\r\n");
              break;
            case 2:
              raw = "POST /solve HTTP/1.1\r\nHost: x\r\nxx\x01garbage\r\n\r\n";
              break;
            default:
              raw = testutil::renderRequest("GET", "/healthz");
              break;
          }
          const ChaosOutcome outcome = chaosFetch(fixture.endpoint(), raw);
          if (outcome.completeResponse) {
            complete.fetch_add(1);
            if (!isDocumentedStatus(outcome.status)) undocumented.fetch_add(1);
          } else {
            dead.fetch_add(1);
          }
        }
      });
    }
    // Rude peers: connect and slam the door without sending a byte.
    for (int i = 0; i < 10; ++i) {
      try {
        Socket s = connectTcp(fixture.endpoint(), 1000);
      } catch (const std::exception&) {
        // accept fault dropped us — that's the point of the storm.
      }
    }
    for (std::thread& t : clients) t.join();
  }

  EXPECT_EQ(undocumented.load(), 0u);
  EXPECT_GT(complete.load(), 0u) << "storm killed literally every connection";

  // Disarmed, the same stack serves untouched traffic...
  const testutil::ClientResponse health = testutil::fetch(fixture.endpoint(), "GET", "/healthz");
  EXPECT_EQ(health.status, 200);
  const testutil::ClientResponse solve =
      testutil::fetch(fixture.endpoint(), "POST", "/solve", solveBody(999, 1));
  EXPECT_EQ(solve.status, 200);
  EXPECT_NE(solve.body.find("\"ok\":true"), std::string::npos) << solve.body;

  // ...and drains cleanly with balanced transport accounting.
  fixture.stop();
  const ServerStats stats = fixture.server().stats();
  EXPECT_EQ(stats.accepted, stats.closed + stats.errored);
  EXPECT_EQ(stats.active, 0u);
}

/// Sub-solve deadlines against one worker and a deep queue: most requests
/// must be cut (shed 503 or deadline 504), none may hang, and every 200
/// body is complete. The per-request budget inside chaosFetch is the
/// "never exceeds the deadline by more than a poll interval" backstop —
/// grossly violated deadlines surface as incomplete responses.
TEST(StressChaos, DeadlineStormOnSaturatedQueueNeverHangs) {
  stream::StreamConfig config;
  config.service.threads = 1;
  config.queueCapacity = 32;
  ChaosFixture fixture(config);

  std::atomic<std::uint64_t> ok{0};
  std::atomic<std::uint64_t> cut{0};  // 503 shed or 504 deadline
  std::atomic<std::uint64_t> other{0};
  std::vector<std::thread> clients;
  for (int c = 0; c < 8; ++c) {
    clients.emplace_back([&, c] {
      for (int i = 0; i < 5; ++i) {
        // 12-stage instances take far longer than 5 ms once queued behind
        // the single worker; only the earliest arrivals can make it.
        const std::string raw =
            testutil::renderRequest("POST", "/solve", solveBody(c * 8 + i, 2, 12, 8),
                                    "X-Deadline-Ms: 5\r\n");
        const ChaosOutcome outcome = chaosFetch(fixture.endpoint(), raw,
                                                std::chrono::seconds(30));
        if (!outcome.completeResponse) {
          other.fetch_add(1);
        } else if (outcome.status == 200) {
          ok.fetch_add(1);
        } else if (outcome.status == 503 || outcome.status == 504) {
          cut.fetch_add(1);
        } else {
          other.fetch_add(1);
        }
      }
    });
  }
  for (std::thread& t : clients) t.join();

  EXPECT_EQ(other.load(), 0u) << "every response must be 200, 503 or 504";
  EXPECT_GT(cut.load(), 0u) << "40 over-deadline posts cannot all have met a 5ms budget";
  EXPECT_EQ(ok.load() + cut.load(), 40u);
}

/// Queue saturation with a parked worker: the flood sheds with 503, the
/// latch releases, and the very same stack then serves a clean 200 — shed
/// is load shedding, not a death spiral.
TEST(StressChaos, ShedFloodRecoversToCleanServiceAfterRelease) {
  std::mutex mutex;
  std::condition_variable cv;
  bool parked = false;   // the blocker request reached the worker
  bool release = false;  // let the blocker finish

  stream::StreamConfig config;
  config.service.threads = 1;
  config.queueCapacity = 1;
  // Only the named blocker parks; everything else solves instantly. With
  // the lone worker parked, nothing pops the queue, so its single slot
  // forces every 2-line flood POST to shed deterministically.
  config.solveOverride = [&](const service::Request& request) {
    if (request.name == "blocker") {
      std::unique_lock lock(mutex);
      parked = true;
      cv.notify_all();
      cv.wait(lock, [&] { return release; });
    }
    service::RequestOutcome outcome;
    outcome.ok = true;
    return outcome;
  };
  ChaosFixture fixture(config);

  std::thread blocker([&] {
    const std::string body =
        "{\"kind\":\"E1\",\"stages\":4,\"processors\":3,\"seed\":1,"
        "\"name\":\"blocker\"}\n";
    (void)chaosFetch(fixture.endpoint(),
                     testutil::renderRequest("POST", "/solve", body),
                     std::chrono::seconds(60));
  });
  {
    std::unique_lock lock(mutex);
    ASSERT_TRUE(cv.wait_for(lock, std::chrono::seconds(10), [&] { return parked; }));
  }

  std::atomic<std::uint64_t> shed{0};
  std::vector<std::thread> flood;
  for (int c = 0; c < 6; ++c) {
    flood.emplace_back([&, c] {
      for (int i = 0; i < 6; ++i) {
        const ChaosOutcome outcome = chaosFetch(
            fixture.endpoint(),
            testutil::renderRequest("POST", "/solve", solveBody(100 + c * 8 + i, 2)),
            std::chrono::seconds(30));
        ASSERT_TRUE(outcome.completeResponse);
        if (outcome.status == 503) shed.fetch_add(1);
      }
    });
  }
  for (std::thread& t : flood) t.join();
  // Every flood POST has 2 lines against 1 queue slot and a parked worker:
  // at least one of its submits must fail, so the whole POST sheds.
  EXPECT_EQ(shed.load(), 36u);

  {
    std::lock_guard lock(mutex);
    release = true;
  }
  cv.notify_all();
  blocker.join();

  const testutil::ClientResponse after =
      testutil::fetch(fixture.endpoint(), "POST", "/solve", solveBody(2, 1));
  EXPECT_EQ(after.status, 200);
}

/// Stalled half-request connections (the slowloris shape) racing healthy
/// traffic: every healthy fetch succeeds while the stalls are reaped with
/// 408 — slow clients cost a connection slot for requestTimeoutMs, never
/// the server.
TEST(StressChaos, StalledConnectionsCannotStarveHealthyTraffic) {
  stream::StreamConfig config;
  config.service.threads = 2;
  HttpServerConfig serverConfig;
  serverConfig.pollTimeoutMs = 20;
  serverConfig.requestTimeoutMs = 120;
  serverConfig.idleTimeoutMs = 2000;
  ChaosFixture fixture(config, serverConfig);

  std::atomic<std::uint64_t> reaped{0};
  std::vector<std::thread> stallers;
  for (int s = 0; s < 4; ++s) {
    stallers.emplace_back([&] {
      const ChaosOutcome outcome = chaosFetch(
          fixture.endpoint(), "POST /solve HTTP/1.1\r\nHost: x\r\n",  // ...and silence
          std::chrono::seconds(10));
      if (outcome.completeResponse && outcome.status == 408) reaped.fetch_add(1);
    });
  }

  std::atomic<std::uint64_t> healthyOk{0};
  std::vector<std::thread> healthy;
  for (int c = 0; c < 4; ++c) {
    healthy.emplace_back([&, c] {
      for (int i = 0; i < 8; ++i) {
        const testutil::ClientResponse solve = testutil::fetch(
            fixture.endpoint(), "POST", "/solve", solveBody(c * 16 + i, 1));
        if (solve.status == 200) healthyOk.fetch_add(1);
      }
    });
  }
  for (std::thread& t : healthy) t.join();
  for (std::thread& t : stallers) t.join();

  EXPECT_EQ(healthyOk.load(), 32u) << "healthy traffic must be untouched by stalls";
  EXPECT_EQ(reaped.load(), 4u) << "every stalled connection gets its 408";
  EXPECT_GE(fixture.server().stats().requestTimeouts, 4u);
}

}  // namespace
}  // namespace pipesched::net
