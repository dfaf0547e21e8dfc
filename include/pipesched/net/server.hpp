// Poll-based multi-client HTTP/1.1 server — the event loop under
// `pipesched serve --listen`. One thread runs the loop (run()); handlers are
// invoked on that thread but complete through a Done callback that is safe
// to call from any thread (scheduler workers finish /solve responses without
// ever blocking the loop). Per-connection write queues keep slow readers
// from stalling other clients; requestStop() is async-signal-safe and starts
// a graceful drain: stop accepting, let in-flight work finish, flush every
// outbox, then return from run().
//
// The transport is instrumented through pipesched::obs (net.* counters and
// per-endpoint latency histograms, recorded only when metrics are enabled)
// and through an always-on ServerStats snapshot for tests and summaries.
#pragma once

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "pipesched/net/http.hpp"
#include "pipesched/net/socket.hpp"

namespace pipesched::obs {
class Counter;
class Gauge;
}  // namespace pipesched::obs

namespace pipesched::net {

struct HttpServerConfig {
  Endpoint endpoint;                       ///< address to bind (port 0 = ephemeral)
  int backlog = 64;
  std::size_t maxConnections = 64;         ///< beyond this, new peers get 503
  /// Request bodies above this get 413.
  std::size_t maxBodyBytes = io::kMaxRequestBytes;
  int pollTimeoutMs = 200;                 ///< loop heartbeat (stop-flag latency)
  int drainTimeoutMs = 5000;               ///< max wait for in-flight work on stop
  /// Slowloris guard: a connection that started a request but has made no
  /// read progress for this long is answered 408 and closed. 0 = disabled.
  /// Enforced on the poll heartbeat, so expiry lands within pollTimeoutMs.
  int requestTimeoutMs = 30000;
  /// Idle keep-alive connections (no request in progress, nothing queued)
  /// are closed silently after this long. 0 = disabled.
  int idleTimeoutMs = 60000;
};

/// Monotonic transport counters, readable from any thread while run() loops.
struct ServerStats {
  std::uint64_t accepted = 0;
  std::uint64_t closed = 0;
  std::uint64_t errored = 0;
  std::uint64_t requests = 0;
  std::uint64_t bytesRead = 0;
  std::uint64_t bytesWritten = 0;
  std::uint64_t shed = 0;    ///< admission-control rejections (see noteShed)
  std::uint64_t active = 0;  ///< currently open connections (gauge)
  std::uint64_t requestTimeouts = 0;  ///< 408s from the slowloris guard
  std::uint64_t idleClosed = 0;       ///< idle keep-alive sweeps
};

class HttpServer {
 public:
  /// Completes the response for one request: (status, content type, body).
  /// Callable exactly once, from any thread; extra calls are ignored.
  using Done = std::function<void(int, std::string, std::string)>;

  /// Invoked on the event-loop thread when a request is fully parsed. The
  /// HttpRequest reference is valid only for the duration of the call — a
  /// handler that finishes asynchronously must copy what it needs before
  /// returning, then invoke Done whenever the result is ready.
  using Handler = std::function<void(const HttpRequest&, Done)>;

  explicit HttpServer(HttpServerConfig config);
  ~HttpServer();
  HttpServer(const HttpServer&) = delete;
  HttpServer& operator=(const HttpServer&) = delete;

  /// Registers an exact-match route. Call before run(); a path registered
  /// under another method answers 405, an unknown path 404. The path with
  /// its leading '/' stripped names the endpoint latency histogram
  /// ("net.endpoint.<name>").
  void handle(std::string method, std::string path, Handler handler);

  /// Resolve + bind + listen. Separate from run() so callers can read
  /// local() (the resolved ephemeral port) before starting the loop.
  void bind();
  [[nodiscard]] Endpoint local() const;

  /// Blocking event loop: accepts, parses, dispatches, flushes. Returns
  /// after requestStop() completes the graceful drain (or its deadline
  /// passes). Calls bind() itself if not yet bound.
  void run();

  /// Async-signal-safe stop: one atomic store plus a self-pipe write. The
  /// loop stops accepting, finishes in-flight requests (each final response
  /// is sent Connection: close so keep-alive peers disconnect), flushes,
  /// then run() returns.
  void requestStop() noexcept;

  [[nodiscard]] bool draining() const noexcept { return draining_.load(); }

  [[nodiscard]] ServerStats stats() const;

  /// Records one admission-control rejection (handler answered 503 because
  /// the scheduler queue was full): ServerStats::shed and net.shed_total.
  void noteShed() noexcept;

 private:
  struct Route {
    std::string method;
    std::string path;
    std::string endpoint;  ///< histogram label (path minus leading '/')
    Handler handler;
  };

  struct Connection {
    Socket socket;
    HttpParser parser;
    std::deque<std::string> outbox;
    std::size_t outboxOffset = 0;  ///< bytes of outbox.front() already sent
    bool awaitingResponse = false; ///< a dispatched request has no response yet
    bool closeAfterFlush = false;
    bool peerClosed = false;
    /// Last accept/read progress — drives the idle/slowloris sweeps.
    std::chrono::steady_clock::time_point lastActivity{};
  };

  /// A finished response travelling from whatever thread called Done back to
  /// the event loop. Owned via shared_ptr so Done closures outlive the
  /// server if a worker finishes late — `closed` then drops the completion.
  struct CompletionQueue;
  struct Completion {
    std::uint64_t connection = 0;
    std::string response;
    bool close = false;
    std::string endpoint;
    std::chrono::steady_clock::time_point start{};
  };

  void acceptPending();
  void sweepTimeouts();
  void readFrom(std::uint64_t id, Connection& conn);
  void processParsed(std::uint64_t id, Connection& conn);
  void dispatch(std::uint64_t id, Connection& conn);
  void applyCompletions();
  [[nodiscard]] bool flush(Connection& conn);
  void destroy(std::uint64_t id, bool errored);
  void queueDirect(Connection& conn, int status, const std::string& body,
                   bool keepAlive);

  HttpServerConfig config_;
  TcpListener listener_;
  std::vector<Route> routes_;
  std::map<std::uint64_t, Connection> connections_;
  std::uint64_t nextConnectionId_ = 1;
  std::shared_ptr<CompletionQueue> completions_;
  Poller poller_;
  std::size_t inflight_ = 0;  ///< dispatched requests whose Done hasn't landed

  std::atomic<bool> stopRequested_{false};
  std::atomic<bool> draining_{false};

  std::atomic<std::uint64_t> accepted_{0};
  std::atomic<std::uint64_t> closed_{0};
  std::atomic<std::uint64_t> errored_{0};
  std::atomic<std::uint64_t> requests_{0};
  std::atomic<std::uint64_t> bytesRead_{0};
  std::atomic<std::uint64_t> bytesWritten_{0};
  std::atomic<std::uint64_t> shed_{0};
  std::atomic<std::uint64_t> requestTimeouts_{0};
  std::atomic<std::uint64_t> idleClosed_{0};
};

}  // namespace pipesched::net
