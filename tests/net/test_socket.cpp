// pipesched::net socket primitives: endpoint parsing, listener + client
// round trips, non-blocking accept, the self-pipe, and the poll multiplexer.
#include "pipesched/net/socket.hpp"

#include <gtest/gtest.h>

#include <csignal>
#include <pthread.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "pipesched/core/types.hpp"
#include "pipesched/fault/fault.hpp"

namespace pipesched::net {
namespace {

std::optional<Socket> acceptWithin(TcpListener& listener, int tries = 200) {
  std::optional<Socket> server;
  for (int i = 0; i < tries && !server; ++i) {
    server = listener.accept();
    if (!server) std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  return server;
}

TEST(ParseEndpoint, AcceptsHostPort) {
  const Endpoint e = parseEndpoint("127.0.0.1:8080");
  EXPECT_EQ(e.host, "127.0.0.1");
  EXPECT_EQ(e.port, 8080);
  EXPECT_EQ(e.str(), "127.0.0.1:8080");

  const Endpoint any = parseEndpoint("0.0.0.0:0");
  EXPECT_EQ(any.host, "0.0.0.0");
  EXPECT_EQ(any.port, 0);
}

TEST(ParseEndpoint, RejectsMalformed) {
  EXPECT_THROW(parseEndpoint("no-port"), ModelError);
  EXPECT_THROW(parseEndpoint(":8080"), ModelError);
  EXPECT_THROW(parseEndpoint("127.0.0.1:"), ModelError);
  EXPECT_THROW(parseEndpoint("127.0.0.1:abc"), ModelError);
  EXPECT_THROW(parseEndpoint("127.0.0.1:70000"), ModelError);
}

TEST(TcpListener, EphemeralPortResolvesAndEchoes) {
  TcpListener listener;
  listener.listen(Endpoint{"127.0.0.1", 0});
  const Endpoint bound = listener.local();
  EXPECT_EQ(bound.host, "127.0.0.1");
  EXPECT_GT(bound.port, 0);

  Socket client = connectTcp(bound);
  ASSERT_TRUE(client.valid());

  // Accept may race the connect's completion: poll for it briefly.
  std::optional<Socket> server;
  for (int i = 0; i < 200 && !server; ++i) {
    server = listener.accept();
    if (!server) std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  ASSERT_TRUE(server.has_value());

  const std::string ping = "ping";
  client.writeAll(ping.data(), ping.size());
  char buffer[16];
  std::string got;
  while (got.size() < ping.size()) {
    const IoResult r = server->read(buffer, sizeof buffer);
    if (r.wouldBlock) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
      continue;
    }
    ASSERT_FALSE(r.closed || r.error);
    got.append(buffer, r.bytes);
  }
  EXPECT_EQ(got, ping);

  // And back the other way (accepted socket is non-blocking; small writes
  // always fit the kernel buffer).
  const IoResult wrote = server->write(got.data(), got.size());
  ASSERT_EQ(wrote.bytes, got.size());
  std::string echo;
  while (echo.size() < got.size()) {
    const IoResult r = client.read(buffer, sizeof buffer);
    ASSERT_FALSE(r.closed || r.error);
    echo.append(buffer, r.bytes);
  }
  EXPECT_EQ(echo, ping);
}

TEST(TcpListener, AcceptWithoutPendingConnectionReturnsNullopt) {
  TcpListener listener;
  listener.listen(Endpoint{"127.0.0.1", 0});
  EXPECT_FALSE(listener.accept().has_value());
}

TEST(TcpListener, ReadReportsPeerClose) {
  TcpListener listener;
  listener.listen(Endpoint{"127.0.0.1", 0});
  {
    Socket client = connectTcp(listener.local());
  }  // closes immediately
  std::optional<Socket> server;
  for (int i = 0; i < 200 && !server; ++i) {
    server = listener.accept();
    if (!server) std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  ASSERT_TRUE(server.has_value());
  char buffer[8];
  IoResult r;
  for (int i = 0; i < 200; ++i) {
    r = server->read(buffer, sizeof buffer);
    if (!r.wouldBlock) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_TRUE(r.closed);
}

TEST(WakePipe, NotifyWakesPollerAndDrainClears) {
  WakePipe pipe;
  Poller poller;

  // Without a notify: timeout, no readiness.
  poller.clear();
  poller.watch(pipe.readFd(), /*read=*/true, /*write=*/false);
  EXPECT_EQ(poller.wait(10), 0);
  EXPECT_EQ(poller.events(pipe.readFd()), 0u);

  pipe.notify();
  pipe.notify();  // coalesces, never blocks
  poller.clear();
  poller.watch(pipe.readFd(), /*read=*/true, /*write=*/false);
  EXPECT_GT(poller.wait(1000), 0);
  EXPECT_TRUE(poller.events(pipe.readFd()) & Poller::kReadable);

  pipe.drain();
  poller.clear();
  poller.watch(pipe.readFd(), /*read=*/true, /*write=*/false);
  EXPECT_EQ(poller.wait(10), 0);
}

// -- EINTR hardening ---------------------------------------------------------

std::atomic<int> g_signalsDelivered{0};
void countSignal(int /*signum*/) { g_signalsDelivered.fetch_add(1); }

/// Installs a no-op SIGUSR1 handler WITHOUT SA_RESTART for the test's
/// duration, so every blocked syscall in the storm genuinely returns EINTR.
class ScopedSigusr1 {
 public:
  ScopedSigusr1() {
    struct sigaction action {};
    action.sa_handler = countSignal;
    sigemptyset(&action.sa_mask);
    action.sa_flags = 0;
    ::sigaction(SIGUSR1, &action, &previous_);
  }
  ~ScopedSigusr1() { ::sigaction(SIGUSR1, &previous_, nullptr); }
  ScopedSigusr1(const ScopedSigusr1&) = delete;
  ScopedSigusr1& operator=(const ScopedSigusr1&) = delete;

 private:
  struct sigaction previous_ {};
};

TEST(SocketEintr, RetryOnEintrLoopsUntilSuccess) {
  int calls = 0;
  const auto result = retryOnEintr([&]() -> long {
    if (++calls < 4) {
      errno = EINTR;
      return -1;
    }
    return 42;
  });
  EXPECT_EQ(result, 42);
  EXPECT_EQ(calls, 4);

  // Non-EINTR errors pass straight through.
  errno = 0;
  const auto failed = retryOnEintr([]() -> long {
    errno = ECONNRESET;
    return -1;
  });
  EXPECT_EQ(failed, -1);
  EXPECT_EQ(errno, ECONNRESET);
}

TEST(SocketEintr, SignalStormNeverCorruptsATransfer) {
  ScopedSigusr1 handler;
  g_signalsDelivered.store(0);

  TcpListener listener;
  listener.listen(Endpoint{"127.0.0.1", 0});
  Socket client = connectTcp(listener.local());
  std::optional<Socket> server = acceptWithin(listener);
  ASSERT_TRUE(server.has_value());

  // Enough bytes to overrun kernel socket buffers many times over, so the
  // writer blocks mid-send and the storm lands EINTRs inside read and write.
  const std::size_t kTotal = 8u << 20;
  std::atomic<bool> writerDone{false};
  std::thread writer([&] {
    std::vector<char> chunk(64u << 10);
    for (std::size_t i = 0; i < chunk.size(); ++i) {
      chunk[i] = static_cast<char>(i % 251);
    }
    std::size_t sent = 0;
    while (sent < kTotal) {
      const std::size_t n = std::min(chunk.size(), kTotal - sent);
      client.writeAll(chunk.data(), n);
      sent += n;
    }
    client.close();  // EOF tells the reader the stream is complete
    writerDone.store(true);
  });
  std::thread storm([&, target = writer.native_handle()] {
    while (!writerDone.load()) {
      ::pthread_kill(target, SIGUSR1);
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
  });

  std::size_t received = 0;
  std::size_t mismatches = 0;
  char buffer[64 << 10];
  for (;;) {
    const IoResult r = server->read(buffer, sizeof buffer);
    if (r.wouldBlock) {
      std::this_thread::sleep_for(std::chrono::microseconds(200));
      continue;
    }
    ASSERT_FALSE(r.error) << "signal storm surfaced as an I/O error";
    if (r.closed) break;
    for (std::size_t i = 0; i < r.bytes; ++i) {
      const char expected = static_cast<char>(((received + i) % (64u << 10)) % 251);
      if (buffer[i] != expected) ++mismatches;
    }
    received += r.bytes;
  }
  writer.join();
  storm.join();

  EXPECT_EQ(received, kTotal);
  EXPECT_EQ(mismatches, 0u);
  EXPECT_GT(g_signalsDelivered.load(), 0) << "storm never landed — test is vacuous";
}

// -- Fault-injection sites ---------------------------------------------------

TEST(SocketFault, ReadFaultSurfacesAsIoError) {
  TcpListener listener;
  listener.listen(Endpoint{"127.0.0.1", 0});
  Socket client = connectTcp(listener.local());
  std::optional<Socket> server = acceptWithin(listener);
  ASSERT_TRUE(server.has_value());

  fault::ScopedFaultSpec scope("net.read");
  char buffer[8];
  const IoResult r = server->read(buffer, sizeof buffer);
  EXPECT_TRUE(r.error);
  EXPECT_EQ(r.bytes, 0u);
}

TEST(SocketFault, WriteFaultSurfacesAsIoError) {
  TcpListener listener;
  listener.listen(Endpoint{"127.0.0.1", 0});
  Socket client = connectTcp(listener.local());
  std::optional<Socket> server = acceptWithin(listener);
  ASSERT_TRUE(server.has_value());

  fault::ScopedFaultSpec scope("net.write");
  const IoResult r = server->write("x", 1);
  EXPECT_TRUE(r.error);
}

TEST(SocketFault, AcceptFaultDropsPendingConnection) {
  TcpListener listener;
  listener.listen(Endpoint{"127.0.0.1", 0});
  Socket client = connectTcp(listener.local());
  {
    fault::ScopedFaultSpec scope("net.accept=count:1000");
    // Give the handshake time to land, then watch the armed accept refuse it.
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    EXPECT_FALSE(listener.accept().has_value());
  }
  // Disarmed, the same pending connection is accepted normally.
  EXPECT_TRUE(acceptWithin(listener).has_value());
}

// -- Bounded connect + retry -------------------------------------------------

TEST(ConnectTcp, TimeoutArgStillConnectsToLiveListener) {
  TcpListener listener;
  listener.listen(Endpoint{"127.0.0.1", 0});
  Socket client = connectTcp(listener.local(), /*timeoutMs=*/2000);
  EXPECT_TRUE(client.valid());
}

TEST(Poller, ReportsWritableOnConnectedSocket) {
  TcpListener listener;
  listener.listen(Endpoint{"127.0.0.1", 0});
  Socket client = connectTcp(listener.local());

  Poller poller;
  poller.watch(client.fd(), /*read=*/false, /*write=*/true);
  EXPECT_GT(poller.wait(1000), 0);
  EXPECT_TRUE(poller.events(client.fd()) & Poller::kWritable);
  EXPECT_EQ(poller.events(client.fd()) & Poller::kReadable, 0u);
  // An unwatched fd reports no events.
  EXPECT_EQ(poller.events(listener.fd()), 0u);
}

}  // namespace
}  // namespace pipesched::net
