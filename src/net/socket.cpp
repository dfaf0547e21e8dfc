#include "pipesched/net/socket.hpp"

#include <arpa/inet.h>
#include <errno.h>
#include <fcntl.h>
#include <netdb.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <cstring>

#include "pipesched/fault/fault.hpp"

namespace pipesched::net {

namespace {

[[noreturn]] void throwErrno(const std::string& what) {
  // Snapshot errno before the message construction, which may allocate and
  // overwrite it.
  const int err = errno;
  throw ModelError("net: " + what + ": " + std::strerror(err));
}

sockaddr_in resolveIpv4(const Endpoint& endpoint) {
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(endpoint.port);
  if (inet_pton(AF_INET, endpoint.host.c_str(), &addr.sin_addr) == 1) return addr;
  // Not a numeric address: one resolver round-trip (IPv4 only — the serving
  // tier binds loopback/any in practice; v6 can join when a deployment needs
  // it without touching any caller).
  addrinfo hints{};
  hints.ai_family = AF_INET;
  hints.ai_socktype = SOCK_STREAM;
  addrinfo* results = nullptr;
  const int rc = ::getaddrinfo(endpoint.host.c_str(), nullptr, &hints, &results);
  if (rc != 0 || results == nullptr) {
    throw ModelError("net: cannot resolve host '" + endpoint.host +
                     "': " + gai_strerror(rc));
  }
  addr.sin_addr = reinterpret_cast<sockaddr_in*>(results->ai_addr)->sin_addr;
  ::freeaddrinfo(results);
  return addr;
}

}  // namespace

std::string Endpoint::str() const { return host + ":" + std::to_string(port); }

Endpoint parseEndpoint(const std::string& text) {
  const std::size_t colon = text.rfind(':');
  if (colon == std::string::npos || colon == 0) {
    throw ModelError("net: endpoint must be host:port, got '" + text + "'");
  }
  Endpoint endpoint;
  endpoint.host = text.substr(0, colon);
  const std::string portText = text.substr(colon + 1);
  if (portText.empty() || portText.find_first_not_of("0123456789") != std::string::npos) {
    throw ModelError("net: bad port in '" + text + "'");
  }
  const unsigned long port = std::stoul(portText);
  if (port > 65535) throw ModelError("net: port out of range in '" + text + "'");
  endpoint.port = static_cast<std::uint16_t>(port);
  return endpoint;
}

Socket& Socket::operator=(Socket&& other) noexcept {
  if (this != &other) {
    close();
    fd_ = other.fd_;
    other.fd_ = -1;
  }
  return *this;
}

void Socket::close() noexcept {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

void Socket::setNonBlocking(bool on) {
  const int flags = ::fcntl(fd_, F_GETFL, 0);
  if (flags < 0) throwErrno("fcntl(F_GETFL)");
  const int next = on ? (flags | O_NONBLOCK) : (flags & ~O_NONBLOCK);
  if (::fcntl(fd_, F_SETFL, next) < 0) throwErrno("fcntl(F_SETFL)");
}

IoResult Socket::read(char* buffer, std::size_t n) noexcept {
  IoResult result;
  if (fault::injected(fault::sites::kNetRead)) {
    result.error = true;
    return result;
  }
  const ssize_t got = retryOnEintr([&] { return ::read(fd_, buffer, n); });
  if (got > 0) {
    result.bytes = static_cast<std::size_t>(got);
    return result;
  }
  if (got == 0) {
    result.closed = true;
    return result;
  }
  if (errno == EAGAIN || errno == EWOULDBLOCK) {
    result.wouldBlock = true;
    return result;
  }
  result.error = true;
  return result;
}

IoResult Socket::write(const char* buffer, std::size_t n) noexcept {
  IoResult result;
  if (fault::injected(fault::sites::kNetWrite)) {
    result.error = true;
    return result;
  }
  const ssize_t wrote = retryOnEintr([&] { return ::send(fd_, buffer, n, MSG_NOSIGNAL); });
  if (wrote >= 0) {
    result.bytes = static_cast<std::size_t>(wrote);
    return result;
  }
  if (errno == EAGAIN || errno == EWOULDBLOCK) {
    result.wouldBlock = true;
    return result;
  }
  result.error = true;
  return result;
}

void Socket::writeAll(const char* buffer, std::size_t n) {
  std::size_t sent = 0;
  while (sent < n) {
    const IoResult r = write(buffer + sent, n - sent);
    if (r.error || r.closed) throw ModelError("net: connection lost mid-write");
    if (r.wouldBlock) {
      // Blocking-client convenience: wait for writability instead of spinning.
      pollfd pfd{fd_, POLLOUT, 0};
      (void)::poll(&pfd, 1, -1);
      continue;
    }
    sent += r.bytes;
  }
}

void TcpListener::listen(const Endpoint& endpoint, int backlog) {
  if (socket_.valid()) throw ModelError("net: listener already open");
  const sockaddr_in addr = resolveIpv4(endpoint);
  Socket sock(::socket(AF_INET, SOCK_STREAM, 0));
  if (!sock.valid()) throwErrno("socket");
  const int one = 1;
  (void)::setsockopt(sock.fd(), SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
  if (::bind(sock.fd(), reinterpret_cast<const sockaddr*>(&addr), sizeof addr) != 0) {
    throwErrno("bind " + endpoint.str());
  }
  if (::listen(sock.fd(), backlog) != 0) throwErrno("listen " + endpoint.str());
  sock.setNonBlocking(true);
  socket_ = std::move(sock);
}

std::optional<Socket> TcpListener::accept() {
  if (!socket_.valid()) throw ModelError("net: accept on a closed listener");
  // An injected accept fault presents as "nothing queued" — the event loop
  // simply retries on the next readiness edge.
  if (fault::injected(fault::sites::kNetAccept)) return std::nullopt;
  const int fd = retryOnEintr([&] { return ::accept(socket_.fd(), nullptr, nullptr); });
  if (fd < 0) {
    // EAGAIN and the transient per-connection accept errors (a peer that
    // reset before we got to it) all mean "nothing usable right now".
    return std::nullopt;
  }
  Socket conn(fd);
  conn.setNonBlocking(true);
  const int one = 1;
  (void)::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
  return conn;
}

Endpoint TcpListener::local() const {
  if (!socket_.valid()) throw ModelError("net: local() on a closed listener");
  sockaddr_in addr{};
  socklen_t len = sizeof addr;
  if (::getsockname(socket_.fd(), reinterpret_cast<sockaddr*>(&addr), &len) != 0) {
    throwErrno("getsockname");
  }
  char host[INET_ADDRSTRLEN] = {0};
  (void)inet_ntop(AF_INET, &addr.sin_addr, host, sizeof host);
  return Endpoint{host, ntohs(addr.sin_port)};
}

Socket connectTcp(const Endpoint& endpoint, int timeoutMs) {
  const sockaddr_in addr = resolveIpv4(endpoint);
  Socket sock(::socket(AF_INET, SOCK_STREAM, 0));
  if (!sock.valid()) throwErrno("socket");
  // Always connect non-blocking and wait via poll(): one code path covers
  // the bounded and unbounded cases, and an EINTR during the wait retries
  // the poll instead of re-issuing connect(2) (which would yield EALREADY).
  sock.setNonBlocking(true);
  const int rc =
      ::connect(sock.fd(), reinterpret_cast<const sockaddr*>(&addr), sizeof addr);
  if (rc != 0 && errno != EINPROGRESS && errno != EINTR) {
    throwErrno("connect " + endpoint.str());
  }
  if (rc != 0) {
    const auto start = std::chrono::steady_clock::now();
    for (;;) {
      int remaining = -1;
      if (timeoutMs >= 0) {
        const auto elapsedMs = std::chrono::duration_cast<std::chrono::milliseconds>(
                                   std::chrono::steady_clock::now() - start)
                                   .count();
        remaining = timeoutMs - static_cast<int>(elapsedMs);
        if (remaining < 0) remaining = 0;
      }
      pollfd pfd{sock.fd(), POLLOUT, 0};
      const int ready = ::poll(&pfd, 1, remaining);
      if (ready < 0 && errno == EINTR) continue;
      if (ready == 0) {
        errno = ETIMEDOUT;
        throwErrno("connect " + endpoint.str() + " (timeout " +
                   std::to_string(timeoutMs) + "ms)");
      }
      if (ready < 0) throwErrno("poll during connect " + endpoint.str());
      break;
    }
    int soError = 0;
    socklen_t len = sizeof soError;
    if (::getsockopt(sock.fd(), SOL_SOCKET, SO_ERROR, &soError, &len) != 0) {
      throwErrno("getsockopt(SO_ERROR) " + endpoint.str());
    }
    if (soError != 0) {
      errno = soError;
      throwErrno("connect " + endpoint.str());
    }
  }
  sock.setNonBlocking(false);
  const int one = 1;
  (void)::setsockopt(sock.fd(), IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
  return sock;
}

WakePipe::WakePipe() {
  if (::pipe(fds_) != 0) throwErrno("pipe");
  for (const int fd : fds_) {
    const int flags = ::fcntl(fd, F_GETFL, 0);
    (void)::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
  }
}

WakePipe::~WakePipe() {
  for (int& fd : fds_) {
    if (fd >= 0) ::close(fd);
    fd = -1;
  }
}

void WakePipe::notify() noexcept {
  const char byte = 1;
  // Async-signal-safe: one write on a non-blocking fd. A full pipe means a
  // wake is already pending — dropping this byte loses nothing.
  (void)!::write(fds_[1], &byte, 1);
}

void WakePipe::drain() noexcept {
  char buffer[64];
  while (retryOnEintr([&] { return ::read(fds_[0], buffer, sizeof buffer); }) > 0) {
  }
}

void Poller::watch(int fd, bool read, bool write) {
  short requested = 0;
  if (read) requested |= POLLIN;
  if (write) requested |= POLLOUT;
  entries_.push_back(Entry{fd, requested, 0});
}

int Poller::wait(int timeoutMs) {
  if (entries_.empty()) return 0;
  std::vector<pollfd> fds;
  fds.reserve(entries_.size());
  for (const Entry& e : entries_) fds.push_back(pollfd{e.fd, e.requested, 0});
  const int ready = ::poll(fds.data(), fds.size(), timeoutMs);
  if (ready <= 0) return 0;  // timeout or EINTR: caller re-checks and re-polls
  for (std::size_t i = 0; i < entries_.size(); ++i) entries_[i].returned = fds[i].revents;
  return ready;
}

unsigned Poller::events(int fd) const noexcept {
  for (const Entry& e : entries_) {
    if (e.fd != fd) continue;
    unsigned mask = 0;
    if (e.returned & POLLIN) mask |= kReadable;
    if (e.returned & POLLOUT) mask |= kWritable;
    if (e.returned & (POLLERR | POLLHUP | POLLNVAL)) mask |= kError;
    return mask;
  }
  return 0;
}

}  // namespace pipesched::net
