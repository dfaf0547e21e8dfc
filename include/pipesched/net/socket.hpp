// pipesched::net primitives — a thin portable wrapper over POSIX TCP
// sockets, just wide enough for the serving tier: RAII fds, a listener with
// non-blocking accept, a blocking client connect (tests, benches, CLI
// probes), a poll(2) readiness multiplexer, and a self-pipe for waking the
// event loop from other threads or signal handlers.
//
// Everything here is transport plumbing with no protocol knowledge; HTTP
// lives in net/http.hpp and the multi-client event loop in net/server.hpp.
// Errors surface as ModelError (setup: resolve/bind/listen) or as explicit
// IoResult flags (per-connection I/O must never throw across the event
// loop — a peer resetting its connection is routine, not exceptional).
#pragma once

#include <cerrno>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "pipesched/core/types.hpp"

namespace pipesched::net {

/// Runs a POSIX-style call (returns >= 0 on success, -1 + errno on failure)
/// until it stops failing with EINTR. The single EINTR policy for every raw
/// read/write/accept in this subsystem — a signal storm must never surface
/// as an I/O error (pinned by SocketEintr.* in tests/net/test_socket.cpp).
/// Note connect(2) is deliberately NOT routed through this: a connect
/// interrupted by a signal completes asynchronously, so retrying the call
/// yields EALREADY — connectTcp() waits via poll() instead.
template <typename Op>
auto retryOnEintr(Op op) -> decltype(op()) {
  for (;;) {
    const auto r = op();
    if (r >= 0 || errno != EINTR) return r;
  }
}

/// "host:port" pair. Host is a numeric IPv4 address or a name the resolver
/// accepts; port 0 asks the kernel for an ephemeral port (the bound value is
/// readable via TcpListener::local()).
struct Endpoint {
  std::string host = "127.0.0.1";
  std::uint16_t port = 0;

  [[nodiscard]] std::string str() const;
};

/// Parses "host:port" (e.g. "127.0.0.1:8080", "0.0.0.0:0"). Throws
/// ModelError on a missing colon, empty host, or an out-of-range port.
[[nodiscard]] Endpoint parseEndpoint(const std::string& text);

/// One non-blocking byte-stream operation's outcome. Exactly one of the
/// following holds: bytes > 0 (progress), wouldBlock (retry after poll),
/// closed (orderly EOF on read), error (connection is dead).
struct IoResult {
  std::size_t bytes = 0;
  bool wouldBlock = false;
  bool closed = false;
  bool error = false;
};

/// RAII TCP socket. Move-only; closes on destruction.
class Socket {
 public:
  Socket() = default;
  explicit Socket(int fd) : fd_(fd) {}
  ~Socket() { close(); }

  Socket(Socket&& other) noexcept : fd_(other.fd_) { other.fd_ = -1; }
  Socket& operator=(Socket&& other) noexcept;
  Socket(const Socket&) = delete;
  Socket& operator=(const Socket&) = delete;

  [[nodiscard]] int fd() const noexcept { return fd_; }
  [[nodiscard]] bool valid() const noexcept { return fd_ >= 0; }

  void close() noexcept;
  void setNonBlocking(bool on);

  /// Reads up to `n` bytes. Never throws; see IoResult.
  [[nodiscard]] IoResult read(char* buffer, std::size_t n) noexcept;

  /// Writes up to `n` bytes (partial writes are normal on a non-blocking
  /// socket — check IoResult::bytes). Never throws; SIGPIPE is suppressed.
  [[nodiscard]] IoResult write(const char* buffer, std::size_t n) noexcept;

  /// Blocking convenience for test/bench clients: writes all `n` bytes,
  /// throws ModelError when the peer dies mid-write.
  void writeAll(const char* buffer, std::size_t n);

 private:
  int fd_ = -1;
};

/// Listening TCP socket with non-blocking accept.
class TcpListener {
 public:
  TcpListener() = default;

  /// Resolve + bind + listen. Throws ModelError on failure (address in use,
  /// unresolvable host). The accepted connections are returned non-blocking.
  void listen(const Endpoint& endpoint, int backlog = 64);

  /// One pending connection, or nullopt when none is queued right now.
  /// Throws ModelError only on programmer error (listener not open).
  [[nodiscard]] std::optional<Socket> accept();

  /// The actually-bound address — resolves port 0 to the kernel's choice.
  [[nodiscard]] Endpoint local() const;

  [[nodiscard]] int fd() const noexcept { return socket_.fd(); }
  [[nodiscard]] bool open() const noexcept { return socket_.valid(); }
  void close() noexcept { socket_.close(); }

 private:
  Socket socket_;
};

/// Client connect — the test/bench/CLI-probe side of the wire. With
/// `timeoutMs >= 0` the connect is bounded: a peer that neither accepts nor
/// refuses within the budget raises ModelError (ETIMEDOUT) instead of
/// blocking for the kernel's (minutes-long) SYN retry cycle. -1 = wait
/// indefinitely. The returned socket is in blocking mode either way.
[[nodiscard]] Socket connectTcp(const Endpoint& endpoint, int timeoutMs = -1);

/// Self-pipe: poll()-able read end plus an async-signal-safe notify().
/// notify() is a single write(2) of one byte on a non-blocking fd, so it is
/// safe from signal handlers and arbitrary threads; a full pipe simply
/// coalesces into the wake already pending.
class WakePipe {
 public:
  WakePipe();
  ~WakePipe();
  WakePipe(const WakePipe&) = delete;
  WakePipe& operator=(const WakePipe&) = delete;

  [[nodiscard]] int readFd() const noexcept { return fds_[0]; }
  void notify() noexcept;
  /// Consumes every pending wake byte (event loop side).
  void drain() noexcept;

 private:
  int fds_[2] = {-1, -1};
};

/// poll(2) multiplexer rebuilt per event-loop iteration: watch() the fds you
/// care about, wait(), then query readiness by fd.
class Poller {
 public:
  static constexpr unsigned kReadable = 1u;
  static constexpr unsigned kWritable = 2u;
  static constexpr unsigned kError = 4u;  ///< POLLERR/POLLHUP/POLLNVAL

  void clear() noexcept { entries_.clear(); }
  void watch(int fd, bool read, bool write);

  /// Blocks up to timeoutMs (-1 = indefinitely). Returns the number of fds
  /// with events; 0 on timeout. EINTR reports as 0 (the loop re-checks its
  /// stop flag and polls again).
  int wait(int timeoutMs);

  /// Readiness bitmask for `fd` after wait(); 0 when unwatched/idle.
  [[nodiscard]] unsigned events(int fd) const noexcept;

 private:
  struct Entry {
    int fd = -1;
    short requested = 0;
    short returned = 0;
  };
  std::vector<Entry> entries_;
};

}  // namespace pipesched::net
