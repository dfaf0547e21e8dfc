#include "pipesched/net/server.hpp"

#include <utility>

#include "pipesched/obs/metrics.hpp"

namespace pipesched::net {

namespace {

std::uint64_t elapsedNanos(std::chrono::steady_clock::time_point start) {
  const auto delta = std::chrono::steady_clock::now() - start;
  const auto ns = std::chrono::duration_cast<std::chrono::nanoseconds>(delta).count();
  return ns > 0 ? static_cast<std::uint64_t>(ns) : 0;
}

}  // namespace

/// Thread-safe mailbox between Done callbacks and the event loop. Shared via
/// shared_ptr so a worker finishing after run() returned hits the `closed`
/// flag instead of a dangling server.
struct HttpServer::CompletionQueue {
  WakePipe wake;
  std::mutex mutex;
  std::vector<Completion> items;
  bool closed = false;

  void push(Completion completion) {
    {
      std::lock_guard<std::mutex> lock(mutex);
      if (closed) return;
      items.push_back(std::move(completion));
    }
    wake.notify();
  }

  std::vector<Completion> take() {
    std::lock_guard<std::mutex> lock(mutex);
    return std::exchange(items, {});
  }

  void close() {
    std::lock_guard<std::mutex> lock(mutex);
    closed = true;
    items.clear();
  }
};

HttpServer::HttpServer(HttpServerConfig config)
    : config_(std::move(config)), completions_(std::make_shared<CompletionQueue>()) {}

HttpServer::~HttpServer() { completions_->close(); }

void HttpServer::handle(std::string method, std::string path, Handler handler) {
  Route route;
  route.method = std::move(method);
  route.path = std::move(path);
  route.endpoint =
      route.path.size() > 1 && route.path.front() == '/' ? route.path.substr(1) : route.path;
  route.handler = std::move(handler);
  routes_.push_back(std::move(route));
}

void HttpServer::bind() {
  if (listener_.open()) return;
  listener_.listen(config_.endpoint);
}

Endpoint HttpServer::local() const { return listener_.local(); }

void HttpServer::requestStop() noexcept {
  stopRequested_.store(true);
  completions_->wake.notify();
}

ServerStats HttpServer::stats() const {
  ServerStats s;
  s.accepted = accepted_.load();
  s.closed = closed_.load();
  s.errored = errored_.load();
  s.requests = requests_.load();
  s.bytesRead = bytesRead_.load();
  s.bytesWritten = bytesWritten_.load();
  s.shed = shed_.load();
  s.active = accepted_.load() - closed_.load() - errored_.load();
  s.requestTimeouts = requestTimeouts_.load();
  s.idleClosed = idleClosed_.load();
  return s;
}

void HttpServer::noteShed() noexcept {
  shed_.fetch_add(1);
  if (obs::metricsEnabled()) obs::registry().counter(obs::names::kNetShed).add(1);
}

void HttpServer::queueDirect(Connection& conn, int status, const std::string& body,
                             bool keepAlive) {
  conn.outbox.push_back(renderHttpResponse(status, "text/plain", body, keepAlive));
  if (!keepAlive) conn.closeAfterFlush = true;
}

void HttpServer::acceptPending() {
  while (auto socket = listener_.accept()) {
    accepted_.fetch_add(1);
    if (obs::metricsEnabled()) {
      obs::registry().counter(obs::names::kNetAccepted).add(1);
    }
    if (connections_.size() >= config_.maxConnections) {
      // Over the connection cap: best-effort 503 on the fresh socket, then
      // drop it. One non-blocking write — never stall the loop for a peer
      // we are rejecting.
      const std::string reply = renderHttpResponse(
          503, "text/plain", "connection limit reached\n", false);
      (void)socket->write(reply.data(), reply.size());
      errored_.fetch_add(1);
      if (obs::metricsEnabled()) {
        obs::registry().counter(obs::names::kNetErrored).add(1);
      }
      continue;
    }
    Connection conn;
    conn.socket = std::move(*socket);
    conn.lastActivity = std::chrono::steady_clock::now();
    connections_.emplace(nextConnectionId_++, std::move(conn));
  }
  if (obs::metricsEnabled()) {
    obs::registry().gauge(obs::names::kNetActive).set(
        static_cast<std::int64_t>(connections_.size()));
  }
}

void HttpServer::sweepTimeouts() {
  if (config_.requestTimeoutMs <= 0 && config_.idleTimeoutMs <= 0) return;
  if (connections_.empty()) return;
  const auto now = std::chrono::steady_clock::now();
  // Collect first: queueDirect/destroy mutate the map and the poll set.
  std::vector<std::uint64_t> stalled;
  std::vector<std::uint64_t> idle;
  for (auto& [id, conn] : connections_) {
    // A connection with a dispatched request or queued bytes is the
    // handler's/flusher's responsibility, not the sweep's.
    if (conn.awaitingResponse || !conn.outbox.empty()) continue;
    const auto quiet = now - conn.lastActivity;
    if (config_.requestTimeoutMs > 0 && conn.parser.started() &&
        quiet >= std::chrono::milliseconds(config_.requestTimeoutMs)) {
      stalled.push_back(id);
    } else if (config_.idleTimeoutMs > 0 && !conn.parser.started() &&
               quiet >= std::chrono::milliseconds(config_.idleTimeoutMs)) {
      idle.push_back(id);
    }
  }
  for (const std::uint64_t id : stalled) {
    // Slowloris guard: answer 408 and close. The response flushes through
    // the normal outbox path on the next writable edge.
    Connection& conn = connections_.at(id);
    queueDirect(conn, 408, "request timeout\n", /*keepAlive=*/false);
    requestTimeouts_.fetch_add(1);
    if (obs::metricsEnabled()) {
      obs::registry().counter(obs::names::kNetRequestTimeouts).add(1);
    }
  }
  for (const std::uint64_t id : idle) {
    // Idle keep-alive: nothing in flight, nothing owed — close silently.
    idleClosed_.fetch_add(1);
    if (obs::metricsEnabled()) {
      obs::registry().counter(obs::names::kNetIdleClosed).add(1);
    }
    destroy(id, /*errored=*/false);
  }
}

void HttpServer::dispatch(std::uint64_t id, Connection& conn) {
  const HttpRequest& request = conn.parser.request();
  requests_.fetch_add(1);
  if (obs::metricsEnabled()) obs::registry().counter(obs::names::kNetRequests).add(1);

  const std::string path = request.path();
  const Route* route = nullptr;
  bool pathKnown = false;
  for (const Route& candidate : routes_) {
    if (candidate.path != path) continue;
    pathKnown = true;
    if (candidate.method == request.method) {
      route = &candidate;
      break;
    }
  }
  if (route == nullptr) {
    queueDirect(conn, pathKnown ? 405 : 404,
                pathKnown ? "method not allowed\n" : "no such endpoint\n",
                request.keepAlive);
    if (request.keepAlive) (void)conn.parser.reset();
    return;
  }

  // While draining, every response closes its connection so keep-alive peers
  // cannot hold the drain open indefinitely.
  const bool keepAlive = request.keepAlive && !draining_.load();
  conn.awaitingResponse = true;
  ++inflight_;
  auto called = std::make_shared<std::atomic<bool>>(false);
  Done done = [queue = completions_, id, endpoint = route->endpoint, keepAlive, called,
               start = std::chrono::steady_clock::now()](
                  int status, std::string contentType, std::string body) {
    if (called->exchange(true)) return;
    Completion completion;
    completion.connection = id;
    completion.response =
        renderHttpResponse(status, std::move(contentType), body, keepAlive);
    completion.close = !keepAlive;
    completion.endpoint = endpoint;
    completion.start = start;
    queue->push(std::move(completion));
  };
  route->handler(request, std::move(done));
}

void HttpServer::processParsed(std::uint64_t id, Connection& conn) {
  while (!conn.awaitingResponse && !conn.closeAfterFlush) {
    switch (conn.parser.status()) {
      case HttpParser::Status::kNeedMore:
        return;
      case HttpParser::Status::kError:
        queueDirect(conn, conn.parser.errorStatus(), conn.parser.error() + "\n", false);
        return;
      case HttpParser::Status::kComplete:
        dispatch(id, conn);
        // dispatch() either reset the parser (direct 404/405 answer — loop to
        // check for a pipelined follow-up) or left awaitingResponse set.
        break;
    }
  }
}

void HttpServer::applyCompletions() {
  for (Completion& completion : completions_->take()) {
    --inflight_;
    if (obs::metricsEnabled() && !completion.endpoint.empty()) {
      obs::endpointHistogram(completion.endpoint).record(elapsedNanos(completion.start));
    }
    auto it = connections_.find(completion.connection);
    if (it == connections_.end()) continue;  // peer vanished; drop the response
    Connection& conn = it->second;
    conn.outbox.push_back(std::move(completion.response));
    conn.awaitingResponse = false;
    // During a drain, close after every response — even ones dispatched
    // before the stop (their rendered header may still say keep-alive; a
    // server may close at will, and the drain must converge).
    if (completion.close || draining_.load()) {
      conn.closeAfterFlush = true;
    } else {
      (void)conn.parser.reset();
      processParsed(completion.connection, conn);
    }
  }
}

void HttpServer::readFrom(std::uint64_t id, Connection& conn) {
  char buffer[8192];
  for (;;) {
    const IoResult r = conn.socket.read(buffer, sizeof buffer);
    if (r.bytes > 0) {
      conn.lastActivity = std::chrono::steady_clock::now();
      bytesRead_.fetch_add(r.bytes);
      if (obs::metricsEnabled()) {
        obs::registry().counter(obs::names::kNetBytesRead).add(r.bytes);
      }
      (void)conn.parser.consume(buffer, r.bytes);
      continue;
    }
    if (r.wouldBlock) break;
    if (r.closed) {
      conn.peerClosed = true;
      break;
    }
    destroy(id, /*errored=*/true);
    return;
  }
  processParsed(id, conn);
}

bool HttpServer::flush(Connection& conn) {
  while (!conn.outbox.empty()) {
    const std::string& front = conn.outbox.front();
    const IoResult r = conn.socket.write(front.data() + conn.outboxOffset,
                                         front.size() - conn.outboxOffset);
    if (r.bytes > 0) {
      bytesWritten_.fetch_add(r.bytes);
      if (obs::metricsEnabled()) {
        obs::registry().counter(obs::names::kNetBytesWritten).add(r.bytes);
      }
      conn.outboxOffset += r.bytes;
      if (conn.outboxOffset == front.size()) {
        conn.outbox.pop_front();
        conn.outboxOffset = 0;
      }
      continue;
    }
    if (r.wouldBlock) return true;
    return false;  // write error: the connection is dead
  }
  return true;
}

void HttpServer::destroy(std::uint64_t id, bool errored) {
  connections_.erase(id);
  (errored ? errored_ : closed_).fetch_add(1);
  if (obs::metricsEnabled()) {
    obs::registry()
        .counter(errored ? obs::names::kNetErrored : obs::names::kNetClosed)
        .add(1);
    obs::registry().gauge(obs::names::kNetActive).set(
        static_cast<std::int64_t>(connections_.size()));
  }
}

void HttpServer::run() {
  bind();
  std::chrono::steady_clock::time_point drainDeadline{};

  for (;;) {
    if (stopRequested_.load() && !draining_.load()) {
      draining_.store(true);
      listener_.close();
      drainDeadline =
          std::chrono::steady_clock::now() + std::chrono::milliseconds(config_.drainTimeoutMs);
      if (obs::metricsEnabled()) obs::registry().gauge(obs::names::kNetDraining).set(1);
    }

    poller_.clear();
    poller_.watch(completions_->wake.readFd(), /*read=*/true, /*write=*/false);
    if (listener_.open()) poller_.watch(listener_.fd(), /*read=*/true, /*write=*/false);
    for (const auto& [id, conn] : connections_) {
      poller_.watch(conn.socket.fd(), /*read=*/!conn.peerClosed,
                    /*write=*/!conn.outbox.empty());
    }

    const int timeout =
        draining_.load() ? 50 : config_.pollTimeoutMs;
    (void)poller_.wait(timeout);
    completions_->wake.drain();

    applyCompletions();
    if (listener_.open() && (poller_.events(listener_.fd()) & Poller::kReadable) != 0) {
      acceptPending();
    }

    // Snapshot ids first: readFrom/flush may erase entries mid-iteration.
    std::vector<std::uint64_t> ids;
    ids.reserve(connections_.size());
    for (const auto& [id, conn] : connections_) ids.push_back(id);
    for (const std::uint64_t id : ids) {
      auto it = connections_.find(id);
      if (it == connections_.end()) continue;
      const unsigned events = poller_.events(it->second.socket.fd());
      if ((events & Poller::kReadable) != 0) readFrom(id, it->second);
      it = connections_.find(id);
      if (it == connections_.end()) continue;
      Connection& conn = it->second;
      if (!conn.outbox.empty() || (events & Poller::kWritable) != 0) {
        if (!flush(conn)) {
          destroy(id, /*errored=*/true);
          continue;
        }
      }
      if ((events & Poller::kError) != 0 && conn.outbox.empty() &&
          !conn.awaitingResponse) {
        destroy(id, /*errored=*/false);
        continue;
      }
      if (conn.outbox.empty() && !conn.awaitingResponse &&
          (conn.closeAfterFlush || conn.peerClosed)) {
        destroy(id, /*errored=*/false);
      }
    }

    // Idle/slowloris sweep rides the poll heartbeat: worst-case detection
    // latency is one pollTimeoutMs tick past the configured timeout.
    sweepTimeouts();

    if (draining_.load()) {
      bool outboxesEmpty = true;
      for (auto& [id, conn] : connections_) {
        if (!conn.outbox.empty()) outboxesEmpty = false;
      }
      const bool drained = inflight_ == 0 && outboxesEmpty;
      if (drained || std::chrono::steady_clock::now() >= drainDeadline) {
        break;
      }
    }
  }

  // Drain complete (or deadline hit): drop whatever connections remain.
  std::vector<std::uint64_t> ids;
  for (const auto& [id, conn] : connections_) ids.push_back(id);
  for (const std::uint64_t id : ids) destroy(id, /*errored=*/false);
  completions_->close();
}

}  // namespace pipesched::net
