// AsyncScheduler under deliberate adversity: submit/trySubmit storms from
// many producers racing snapshot() pollers, coalescing storms that hammer
// one canonical key through the park/overflow paths, and close() fired while
// producers are mid-submit. The solveOverride hook replaces the real
// portfolio so the races run thousands of times per second; the invariants
// checked are the scheduler's own accounting contract.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <future>
#include <sstream>
#include <thread>
#include <vector>

#include "pipesched/stream/async_scheduler.hpp"
#include "pipesched/workload/generator.hpp"

namespace pipesched::stream {
namespace {

service::Request makeRequest(std::uint64_t seed, std::size_t points = 4) {
  workload::Rng rng(seed);
  workload::InstancePair pair =
      workload::randomInstance(workload::ExperimentKind::kE2BalancedHetComm, 5, 3, rng);
  std::ostringstream label;
  label << "stress-" << seed;
  return service::Request{std::move(pair.pipeline), std::move(pair.platform),
                          core::CommModel::kSequential, service::SweepSpec{points, 3},
                          label.str()};
}

service::RequestOutcome okOutcome() {
  service::RequestOutcome outcome;
  outcome.ok = true;
  return outcome;
}

void expectInvariant(const StreamStats& s) {
  EXPECT_EQ(s.solved + s.cacheHits + s.coalesced + s.failed, s.completed);
  EXPECT_EQ(s.completed, s.submitted);
}

/// Mixed submit()/trySubmit() storm from 4 producers against a tiny queue,
/// with a dedicated thread polling snapshot() the whole time. The snapshot
/// invariants (in-flight derived under one lock, depth clamped to capacity)
/// must hold on every single poll, and the final accounting must balance:
/// every accepted request completes exactly once.
TEST(StressAsyncScheduler, SubmitStormAgainstSnapshotPolling) {
  StreamConfig config;
  config.service.threads = 3;
  config.queueCapacity = 4;
  config.solveOverride = [](const service::Request&) { return okOutcome(); };
  AsyncScheduler scheduler(config);

  constexpr std::size_t kProducers = 4;
  constexpr std::size_t kPerProducer = 400;
  std::atomic<std::uint64_t> acceptedTry{0};
  std::atomic<std::uint64_t> sheddedTry{0};
  std::atomic<std::uint64_t> callbacksRun{0};
  std::atomic<bool> stopPolling{false};

  std::thread poller([&] {
    while (!stopPolling.load()) {
      const StreamStats snap = scheduler.snapshot();
      EXPECT_GE(snap.submitted, snap.completed);
      EXPECT_EQ(snap.inFlight, snap.submitted - snap.completed);
      EXPECT_LE(snap.queueDepth, snap.queueCapacity);
      EXPECT_LE(snap.solved + snap.cacheHits + snap.coalesced +
                    snap.failed,
                snap.submitted);
    }
  });

  std::vector<std::thread> producers;
  for (std::size_t p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p] {
      std::vector<std::future<service::RequestOutcome>> futures;
      for (std::size_t i = 0; i < kPerProducer; ++i) {
        const std::uint64_t seed = p * kPerProducer + i;
        if (i % 2 == 0) {
          futures.push_back(scheduler.submit(makeRequest(seed)));
        } else if (scheduler.trySubmit(
                       makeRequest(seed),
                       [&](const service::Request&, const service::RequestOutcome& o) {
                         EXPECT_TRUE(o.ok);
                         callbacksRun.fetch_add(1);
                       })) {
          acceptedTry.fetch_add(1);
        } else {
          sheddedTry.fetch_add(1);  // queue full: admission control, not an error
        }
      }
      for (auto& f : futures) EXPECT_TRUE(f.get().ok);
    });
  }
  for (std::thread& t : producers) t.join();
  scheduler.drain();
  stopPolling.store(true);
  poller.join();
  scheduler.close();

  const StreamStats stats = scheduler.snapshot();
  expectInvariant(stats);
  EXPECT_EQ(stats.submitted, kProducers * kPerProducer / 2 + acceptedTry.load());
  EXPECT_EQ(callbacksRun.load(), acceptedTry.load());
  EXPECT_EQ(stats.failed, 0u);
}

/// One canonical key hammered from every producer while solves are held open
/// long enough for duplicates to pile onto the in-flight list. With the
/// waiter cap at 2 the storm exercises all three duplicate paths — parked
/// (coalesced), overflowed (solved directly), and fresh — and the partition
/// invariant must still balance exactly. snapshot() polls concurrently to
/// race the inflight_ map reads against park/erase.
TEST(StressAsyncScheduler, CoalesceStormThroughParkAndOverflowPaths) {
  StreamConfig config;
  config.service.threads = 4;
  config.queueCapacity = 8;
  config.maxCoalescedWaiters = 2;
  config.solveOverride = [](const service::Request&) {
    std::this_thread::sleep_for(std::chrono::microseconds(200));
    return okOutcome();
  };
  AsyncScheduler scheduler(config);

  constexpr std::size_t kProducers = 4;
  constexpr std::size_t kPerProducer = 150;
  std::atomic<bool> stopPolling{false};
  std::thread poller([&] {
    while (!stopPolling.load()) {
      const StreamStats snap = scheduler.snapshot();
      // Parked waiters can only exist for keys currently in flight.
      if (snap.inflightKeys == 0) EXPECT_EQ(snap.parkedWaiters, 0u);
      EXPECT_LE(snap.parkedWaiters,
                snap.inflightKeys * config.maxCoalescedWaiters);
    }
  });

  std::vector<std::thread> producers;
  for (std::size_t p = 0; p < kProducers; ++p) {
    producers.emplace_back([&] {
      std::vector<std::future<service::RequestOutcome>> futures;
      for (std::size_t i = 0; i < kPerProducer; ++i) {
        futures.push_back(scheduler.submit(makeRequest(7)));  // identical key
      }
      for (auto& f : futures) EXPECT_TRUE(f.get().ok);
    });
  }
  for (std::thread& t : producers) t.join();
  scheduler.drain();
  stopPolling.store(true);
  poller.join();
  scheduler.close();

  const StreamStats stats = scheduler.snapshot();
  expectInvariant(stats);
  EXPECT_EQ(stats.submitted, kProducers * kPerProducer);
  // The override bypasses the cache, so every completion is a fresh solve or
  // a coalesced copy — and with 600 identical requests through 4 workers,
  // some must have coalesced.
  EXPECT_EQ(stats.solved + stats.coalesced, stats.completed);
  EXPECT_GT(stats.coalesced, 0u);
  EXPECT_EQ(stats.coalesced, stats.waitersAttached);
}

/// close() fired from a foreign thread while producers are mid-storm: every
/// submit() from then on throws ModelError (and trySubmit returns false), but
/// every request accepted before the cut completes exactly once — shutdown
/// never drops accepted work. Repeated rounds move the cut point around.
TEST(StressAsyncScheduler, CloseDuringSubmitStormDropsNothingAccepted) {
  for (int round = 0; round < 10; ++round) {
    StreamConfig config;
    config.service.threads = 2;
    config.queueCapacity = 4;
    config.solveOverride = [](const service::Request&) {
      std::this_thread::sleep_for(std::chrono::microseconds(50));
      return okOutcome();
    };
    auto scheduler = std::make_unique<AsyncScheduler>(config);

    std::atomic<std::uint64_t> completions{0};
    std::atomic<std::uint64_t> accepted{0};
    std::atomic<std::uint64_t> refused{0};
    constexpr std::size_t kProducers = 3;
    std::vector<std::thread> producers;
    for (std::size_t p = 0; p < kProducers; ++p) {
      producers.emplace_back([&, p] {
        for (std::size_t i = 0; i < 200; ++i) {
          try {
            scheduler->submit(makeRequest(p * 1000 + i),
                              [&](const service::Request&,
                                  const service::RequestOutcome&) {
                                completions.fetch_add(1);
                              });
            accepted.fetch_add(1);
          } catch (const ModelError&) {
            refused.fetch_add(1);
            return;  // closed: all later submits would throw too
          }
        }
      });
    }

    while (accepted.load() < 20) std::this_thread::yield();
    std::thread closer([&] { scheduler->close(); });
    closer.join();
    for (std::thread& t : producers) t.join();

    const StreamStats stats = scheduler->snapshot();
    EXPECT_EQ(stats.submitted, accepted.load());
    EXPECT_EQ(stats.completed, accepted.load());
    EXPECT_EQ(completions.load(), accepted.load());
    expectInvariant(stats);
    scheduler.reset();  // destructor after explicit close: must be idempotent
  }
}

/// drain() racing completions: producers submit a burst, then every producer
/// thread calls drain() simultaneously while a poller snapshots. All drains
/// must return (no lost wakeup), after which completed == submitted.
TEST(StressAsyncScheduler, ConcurrentDrainersAllWake) {
  StreamConfig config;
  config.service.threads = 2;
  config.queueCapacity = 8;
  config.solveOverride = [](const service::Request&) {
    std::this_thread::sleep_for(std::chrono::microseconds(100));
    return okOutcome();
  };
  AsyncScheduler scheduler(config);

  for (int burst = 0; burst < 5; ++burst) {
    std::vector<std::future<service::RequestOutcome>> futures;
    for (std::size_t i = 0; i < 50; ++i) {
      futures.push_back(scheduler.submit(makeRequest(burst * 100 + i)));
    }
    std::vector<std::thread> drainers;
    for (int d = 0; d < 4; ++d) drainers.emplace_back([&] { scheduler.drain(); });
    for (std::thread& t : drainers) t.join();
    const StreamStats stats = scheduler.snapshot();
    EXPECT_EQ(stats.completed, stats.submitted);
    for (auto& f : futures) EXPECT_TRUE(f.get().ok);
  }
  scheduler.close();
  expectInvariant(scheduler.snapshot());
}

}  // namespace
}  // namespace pipesched::stream
