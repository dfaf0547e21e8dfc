// AsyncScheduler: future/callback submission, failure isolation (a throwing
// solve or callback never kills a worker), in-flight coalescing, the
// drain()/close() lifecycle with pending work, and the stats partition
// invariant solved + cacheHits + coalesced + failed == completed.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <future>
#include <mutex>
#include <sstream>
#include <thread>
#include <vector>

#include "pipesched/core/types.hpp"
#include "pipesched/fault/fault.hpp"
#include "pipesched/stream/async_scheduler.hpp"
#include "pipesched/workload/generator.hpp"

namespace pipesched::stream {
namespace {

service::Request makeRequest(std::uint64_t seed, std::size_t points = 6,
                             const std::string& name = "") {
  workload::Rng rng(seed);
  workload::InstancePair pair =
      workload::randomInstance(workload::ExperimentKind::kE2BalancedHetComm, 6, 4, rng);
  std::ostringstream label;
  label << (name.empty() ? "req" : name) << '-' << seed;
  return service::Request{std::move(pair.pipeline), std::move(pair.platform),
                          core::CommModel::kSequential, service::SweepSpec{points, 3},
                          label.str()};
}

void expectInvariant(const StreamStats& s) {
  EXPECT_EQ(s.solved + s.cacheHits + s.coalesced + s.failed, s.completed);
}

TEST(AsyncScheduler, FutureCarriesTheOutcome) {
  StreamConfig config;
  config.service.threads = 2;
  config.queueCapacity = 4;
  AsyncScheduler scheduler(config);
  std::future<service::RequestOutcome> future = scheduler.submit(makeRequest(1));
  const service::RequestOutcome outcome = future.get();
  EXPECT_TRUE(outcome.ok);
  EXPECT_FALSE(outcome.result.front.empty());
  scheduler.close();
  expectInvariant(scheduler.snapshot());
}

TEST(AsyncScheduler, InlineModeSolvesInSubmit) {
  StreamConfig config;
  config.service.threads = 0;  // no threads at all: the serial reference mode
  AsyncScheduler scheduler(config);
  std::future<service::RequestOutcome> future = scheduler.submit(makeRequest(2));
  EXPECT_EQ(future.wait_for(std::chrono::seconds(0)), std::future_status::ready);
  EXPECT_TRUE(future.get().ok);
  const StreamStats stats = scheduler.snapshot();
  EXPECT_EQ(stats.submitted, 1u);
  EXPECT_EQ(stats.solved, 1u);
  expectInvariant(stats);
}

TEST(AsyncScheduler, ServiceThreadsSizeTheWorkers) {
  // service.threads is the scheduler's one thread knob: with two threads two
  // solves are inside the service at once. Each solve waits (bounded) for the
  // other; with a single worker the first would time out and fail.
  std::mutex mutex;
  std::condition_variable cv;
  std::size_t inside = 0;
  StreamConfig config;
  config.service.threads = 2;
  config.solveOverride = [&](const service::Request&) -> service::RequestOutcome {
    std::unique_lock<std::mutex> lock(mutex);
    ++inside;
    cv.notify_all();
    service::RequestOutcome outcome;
    outcome.ok = cv.wait_for(lock, std::chrono::seconds(5), [&] { return inside >= 2; });
    return outcome;
  };
  AsyncScheduler scheduler(config);
  std::future<service::RequestOutcome> first = scheduler.submit(makeRequest(90));
  std::future<service::RequestOutcome> second = scheduler.submit(makeRequest(91));
  EXPECT_TRUE(first.get().ok);
  EXPECT_TRUE(second.get().ok);
}

TEST(AsyncScheduler, CallbackRunsWithTheOutcome) {
  StreamConfig config;
  config.service.threads = 1;
  AsyncScheduler scheduler(config);
  std::promise<service::RequestOutcome> delivered;
  scheduler.submit(makeRequest(3),
                   [&](const service::Request& request, const service::RequestOutcome& outcome) {
                     EXPECT_EQ(request.name, "req-3");
                     delivered.set_value(outcome);
                   });
  const service::RequestOutcome outcome = delivered.get_future().get();
  EXPECT_TRUE(outcome.ok);
}

TEST(AsyncScheduler, MalformedRequestFailsItsFutureOnly) {
  StreamConfig config;
  config.service.threads = 2;
  AsyncScheduler scheduler(config);
  service::Request bad = makeRequest(4);
  bad.sweep.points = 0;  // runPortfolio rejects this
  std::future<service::RequestOutcome> badFuture = scheduler.submit(bad);
  std::future<service::RequestOutcome> goodFuture = scheduler.submit(makeRequest(5));
  const service::RequestOutcome badOutcome = badFuture.get();
  EXPECT_FALSE(badOutcome.ok);
  EXPECT_FALSE(badOutcome.error.empty());
  EXPECT_TRUE(goodFuture.get().ok);  // the worker survived the failure
  scheduler.drain();
  const StreamStats stats = scheduler.snapshot();
  EXPECT_EQ(stats.failed, 1u);
  expectInvariant(stats);
}

TEST(AsyncScheduler, ThrowingSolveBecomesAFailedOutcomeNotTerminate) {
  StreamConfig config;
  config.service.threads = 1;
  config.solveOverride = [](const service::Request& request) -> service::RequestOutcome {
    if (request.name == "req-7") throw std::runtime_error("solver exploded");
    if (request.name == "req-8") throw 42;  // non-std exception
    service::RequestOutcome ok;
    ok.ok = true;
    return ok;
  };
  AsyncScheduler scheduler(config);
  const service::RequestOutcome first = scheduler.submit(makeRequest(7)).get();
  EXPECT_FALSE(first.ok);
  EXPECT_EQ(first.error, "solver exploded");
  const service::RequestOutcome second = scheduler.submit(makeRequest(8)).get();
  EXPECT_FALSE(second.ok);
  EXPECT_EQ(second.error, "unknown exception while solving");
  const service::RequestOutcome third = scheduler.submit(makeRequest(9)).get();
  EXPECT_TRUE(third.ok);  // the worker thread survived both throws
  scheduler.drain();
  expectInvariant(scheduler.snapshot());
}

TEST(AsyncScheduler, ThrowingCallbackIsContainedAndCounted) {
  StreamConfig config;
  config.service.threads = 1;
  AsyncScheduler scheduler(config);
  scheduler.submit(makeRequest(10), [](const service::Request&,
                                       const service::RequestOutcome&) {
    throw std::runtime_error("callback bug");
  });
  scheduler.drain();
  EXPECT_EQ(scheduler.snapshot().callbackExceptions, 1u);
  // The worker is still alive and solving.
  EXPECT_TRUE(scheduler.submit(makeRequest(11)).get().ok);
}

TEST(AsyncScheduler, DuplicatesOneAtATimeAreCacheHitsAndTheStatsPartition) {
  // The satellite invariant: requests arriving strictly one at a time (drain
  // between submits) land in solved/cacheHits/failed only, and the buckets
  // always sum to completed.
  StreamConfig config;
  config.service.threads = 2;
  AsyncScheduler scheduler(config);
  const service::Request a = makeRequest(20);
  const service::Request b = makeRequest(21);
  service::Request bad = makeRequest(22);
  bad.sweep.points = 0;
  const service::Request sequence[] = {a, b, a, bad, a, b};
  for (const service::Request& request : sequence) {
    (void)scheduler.submit(request).get();
    scheduler.drain();
    expectInvariant(scheduler.snapshot());
  }
  const StreamStats stats = scheduler.snapshot();
  EXPECT_EQ(stats.submitted, 6u);
  EXPECT_EQ(stats.completed, 6u);
  EXPECT_EQ(stats.solved, 2u);     // a and b, first arrivals
  EXPECT_EQ(stats.cacheHits, 3u);  // the repeats, never in flight together
  EXPECT_EQ(stats.coalesced, 0u);
  EXPECT_EQ(stats.failed, 1u);
}

TEST(AsyncScheduler, InFlightDuplicatesCoalesceDeterministically) {
  // solveOverride + a latch make the race deterministic: the first duplicate
  // blocks in the solver until the second has been parked on it
  // (waitersAttached), so exactly one solve serves both.
  std::mutex gate_mutex;
  std::condition_variable gate_cv;
  bool released = false;
  std::atomic<int> solves{0};

  StreamConfig config;
  config.service.threads = 2;
  config.queueCapacity = 4;
  config.solveOverride = [&](const service::Request&) -> service::RequestOutcome {
    const int nth = ++solves;
    if (nth == 1) {
      std::unique_lock lock(gate_mutex);
      gate_cv.wait(lock, [&] { return released; });
    }
    service::RequestOutcome outcome;
    outcome.ok = true;
    outcome.result.front.push_back(core::ParetoPoint{Real(nth), Real(nth), std::nullopt});
    return outcome;
  };
  AsyncScheduler scheduler(config);

  const service::Request request = makeRequest(30);
  std::future<service::RequestOutcome> first = scheduler.submit(request);
  std::future<service::RequestOutcome> second = scheduler.submit(request);

  // Wait until the duplicate is parked on the in-flight solve, then open the
  // gate. Polling is safe: waitersAttached is monotone.
  while (scheduler.snapshot().waitersAttached == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  {
    std::lock_guard lock(gate_mutex);
    released = true;
  }
  gate_cv.notify_all();

  const service::RequestOutcome a = first.get();
  const service::RequestOutcome b = second.get();
  scheduler.drain();
  ASSERT_TRUE(a.ok);
  ASSERT_TRUE(b.ok);
  EXPECT_EQ(solves.load(), 1);  // one solve served both
  // Both outcomes carry the same front; exactly one is the coalesced copy.
  ASSERT_EQ(a.result.front.size(), 1u);
  ASSERT_EQ(b.result.front.size(), 1u);
  EXPECT_EQ(a.result.front[0].period, b.result.front[0].period);
  EXPECT_NE(a.deduped, b.deduped);
  const StreamStats stats = scheduler.snapshot();
  EXPECT_EQ(stats.solved, 1u);
  EXPECT_EQ(stats.coalesced, 1u);
  EXPECT_EQ(stats.waitersAttached, 1u);
  expectInvariant(stats);
}

TEST(AsyncScheduler, CloseWithPendingWorkCompletesEverything) {
  std::mutex gate_mutex;
  std::condition_variable gate_cv;
  bool released = false;

  StreamConfig config;
  config.service.threads = 2;
  config.queueCapacity = 8;
  config.solveOverride = [&](const service::Request&) -> service::RequestOutcome {
    std::unique_lock lock(gate_mutex);
    gate_cv.wait(lock, [&] { return released; });
    service::RequestOutcome outcome;
    outcome.ok = true;
    return outcome;
  };
  AsyncScheduler scheduler(config);

  std::vector<std::future<service::RequestOutcome>> futures;
  for (std::uint64_t seed = 40; seed < 45; ++seed) {
    futures.push_back(scheduler.submit(makeRequest(seed)));
  }
  std::thread closer([&] { scheduler.close(); });  // blocks on the gated work
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  {
    std::lock_guard lock(gate_mutex);
    released = true;
  }
  gate_cv.notify_all();
  closer.join();

  // Shutdown dropped nothing: every accepted future is fulfilled.
  for (auto& future : futures) EXPECT_TRUE(future.get().ok);
  const StreamStats stats = scheduler.snapshot();
  EXPECT_EQ(stats.completed, 5u);
  expectInvariant(stats);
  EXPECT_THROW((void)scheduler.submit(makeRequest(46)), ModelError);
}

TEST(AsyncScheduler, DestructorDrainsPendingWork) {
  std::vector<std::future<service::RequestOutcome>> futures;
  {
    StreamConfig config;
    config.service.threads = 2;
    config.queueCapacity = 2;
    AsyncScheduler scheduler(config);
    for (std::uint64_t seed = 50; seed < 54; ++seed) {
      futures.push_back(scheduler.submit(makeRequest(seed)));
    }
  }  // ~AsyncScheduler: close() + join
  for (auto& future : futures) EXPECT_TRUE(future.get().ok);
}

TEST(AsyncScheduler, CoalescedWaiterListIsCappedAndOverflowSolvesDirectly) {
  // Regression (ROADMAP "bound coalesced-waiter memory"): parked duplicates
  // escape the channel's capacity accounting, so the per-key waiter list is
  // capped; past the cap the popping worker solves the duplicate itself.
  std::mutex gate_mutex;
  std::condition_variable gate_cv;
  bool released = false;
  std::atomic<int> solves{0};

  StreamConfig config;
  config.service.threads = 2;
  config.queueCapacity = 4;
  config.maxCoalescedWaiters = 2;
  config.solveOverride = [&](const service::Request&) -> service::RequestOutcome {
    ++solves;
    std::unique_lock lock(gate_mutex);
    gate_cv.wait(lock, [&] { return released; });
    service::RequestOutcome outcome;
    outcome.ok = true;
    return outcome;
  };
  AsyncScheduler scheduler(config);

  // 8 identical requests: one worker owns the key and blocks in the solve;
  // the other parks exactly maxCoalescedWaiters duplicates, then the next
  // duplicate overflows the list and is solved directly (blocking too). The
  // remaining 4 fit the channel, so submission completes.
  const service::Request request = makeRequest(70);
  std::vector<std::future<service::RequestOutcome>> futures;
  for (int i = 0; i < 8; ++i) futures.push_back(scheduler.submit(request));

  // Poll monotone counters only — no fixed sleeps.
  while (true) {
    const StreamStats stats = scheduler.snapshot();
    if (stats.waitersAttached == 2 && stats.coalesceOverflow == 1) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(scheduler.snapshot().completed, 0u);  // everything gated or parked
  {
    std::lock_guard lock(gate_mutex);
    released = true;
  }
  gate_cv.notify_all();
  for (auto& future : futures) EXPECT_TRUE(future.get().ok);
  scheduler.drain();
  const StreamStats stats = scheduler.snapshot();
  EXPECT_EQ(stats.completed, 8u);
  // Every parked duplicate became a coalesced copy; everything else (owner,
  // overflow, post-release pops) went through its own solve.
  EXPECT_GE(stats.waitersAttached, 2u);
  EXPECT_EQ(stats.coalesced, stats.waitersAttached);
  EXPECT_EQ(stats.solved + stats.coalesced, 8u);
  EXPECT_EQ(stats.solved, static_cast<std::uint64_t>(solves.load()));
  expectInvariant(stats);
}

TEST(AsyncScheduler, AllDuplicatesStreamStaysBounded) {
  // The boundedness proof: with EVERY solve gated, an all-duplicates stream
  // must come to rest with at most
  //   1 (owner) + cap (parked) + 1 (overflow on the other worker)
  //   + queueCapacity (channel) + 1 (producer blocked in push)
  // requests admitted — with unbounded parking (the old behavior) the
  // producer would sail through all 50 submissions.
  std::mutex gate_mutex;
  std::condition_variable gate_cv;
  bool released = false;

  StreamConfig config;
  config.service.threads = 2;
  config.queueCapacity = 2;
  config.maxCoalescedWaiters = 2;
  config.solveOverride = [&](const service::Request&) -> service::RequestOutcome {
    std::unique_lock lock(gate_mutex);
    gate_cv.wait(lock, [&] { return released; });
    service::RequestOutcome outcome;
    outcome.ok = true;
    return outcome;
  };
  AsyncScheduler scheduler(config);

  const service::Request request = makeRequest(71);
  std::vector<std::future<service::RequestOutcome>> futures;
  std::thread producer([&] {
    for (int i = 0; i < 50; ++i) futures.push_back(scheduler.submit(request));
  });

  // Quiescence: both workers gated (one owner, one overflow), the waiter
  // list full, the channel full, the producer blocked. All monotone.
  while (true) {
    const StreamStats stats = scheduler.snapshot();
    if (stats.waitersAttached >= 2 && stats.coalesceOverflow >= 1 &&
        stats.queue.pushWaits >= 1) {
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  {
    const StreamStats stats = scheduler.snapshot();
    EXPECT_EQ(stats.completed, 0u);
    EXPECT_LE(stats.submitted, 7u);  // 1 + 2 + 1 + 2 + 1 — bounded, not 50
    EXPECT_LE(stats.waitersAttached, 2u);
  }
  {
    std::lock_guard lock(gate_mutex);
    released = true;
  }
  gate_cv.notify_all();
  producer.join();
  for (auto& future : futures) EXPECT_TRUE(future.get().ok);
  scheduler.drain();
  const StreamStats stats = scheduler.snapshot();
  EXPECT_EQ(stats.submitted, 50u);
  EXPECT_EQ(stats.completed, 50u);
  expectInvariant(stats);
}

TEST(AsyncScheduler, OverflowOutcomesAreByteIdenticalToCoalescedOnes) {
  // No override: overflow duplicates go through real portfolio solves, which
  // must render byte-identically to the coalesced copies (the determinism
  // contract the cap relies on).
  StreamConfig config;
  config.service.threads = 2;
  config.queueCapacity = 8;
  config.maxCoalescedWaiters = 1;
  AsyncScheduler scheduler(config);
  const service::Request request = makeRequest(73);
  std::vector<std::future<service::RequestOutcome>> futures;
  for (int i = 0; i < 6; ++i) futures.push_back(scheduler.submit(request));
  std::vector<service::RequestOutcome> outcomes;
  for (auto& future : futures) outcomes.push_back(future.get());
  scheduler.drain();
  for (const service::RequestOutcome& outcome : outcomes) {
    ASSERT_TRUE(outcome.ok);
    EXPECT_EQ(service::describeOutcome(outcome), service::describeOutcome(outcomes.front()));
    EXPECT_EQ(outcome.fingerprint.hex(), outcomes.front().fingerprint.hex());
  }
  expectInvariant(scheduler.snapshot());
}

TEST(AsyncScheduler, CapZeroDisablesCoalescingEntirely) {
  std::atomic<int> solves{0};
  StreamConfig config;
  config.service.threads = 2;
  config.queueCapacity = 8;
  config.maxCoalescedWaiters = 0;
  config.solveOverride = [&](const service::Request&) -> service::RequestOutcome {
    ++solves;
    service::RequestOutcome outcome;
    outcome.ok = true;
    return outcome;
  };
  AsyncScheduler scheduler(config);
  const service::Request request = makeRequest(72);
  std::vector<std::future<service::RequestOutcome>> futures;
  for (int i = 0; i < 6; ++i) futures.push_back(scheduler.submit(request));
  for (auto& future : futures) EXPECT_TRUE(future.get().ok);
  scheduler.drain();
  const StreamStats stats = scheduler.snapshot();
  EXPECT_EQ(stats.completed, 6u);
  EXPECT_EQ(stats.waitersAttached, 0u);
  EXPECT_EQ(stats.coalesced, 0u);
  EXPECT_EQ(solves.load(), 6);  // every duplicate solved on its own
  expectInvariant(stats);
}

TEST(AsyncScheduler, BackpressureIsObservableUnderABlockedWorker) {
  std::mutex gate_mutex;
  std::condition_variable gate_cv;
  bool released = false;

  StreamConfig config;
  config.service.threads = 1;
  config.queueCapacity = 1;
  config.solveOverride = [&](const service::Request&) -> service::RequestOutcome {
    std::unique_lock lock(gate_mutex);
    gate_cv.wait(lock, [&] { return released; });
    service::RequestOutcome outcome;
    outcome.ok = true;
    return outcome;
  };
  AsyncScheduler scheduler(config);
  // Worker takes #1 and blocks; #2 fills the queue; #3 must block in submit.
  std::vector<std::future<service::RequestOutcome>> futures;
  futures.push_back(scheduler.submit(makeRequest(60)));
  futures.push_back(scheduler.submit(makeRequest(61)));
  std::thread producer([&] { futures.push_back(scheduler.submit(makeRequest(62))); });
  // Open the gate only once #3 is provably blocked on the full queue —
  // a fixed sleep would race the producer thread's startup.
  while (scheduler.snapshot().queue.pushWaits == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  {
    std::lock_guard lock(gate_mutex);
    released = true;
  }
  gate_cv.notify_all();
  producer.join();
  scheduler.drain();
  EXPECT_GE(scheduler.snapshot().queue.pushWaits, 1u);
  for (auto& future : futures) EXPECT_TRUE(future.get().ok);
}

void expectCoherent(const StreamStats& snap) {
  // The invariants a poller may rely on at ANY instant: derived quantities
  // are computed inside one critical section, and the independently-locked
  // channel depth is clamped to the configured capacity.
  EXPECT_GE(snap.submitted, snap.completed);
  EXPECT_EQ(snap.inFlight, snap.submitted - snap.completed);
  EXPECT_LE(snap.queueDepth, snap.queueCapacity);
  EXPECT_LE(snap.inflightKeys, snap.inFlight);
}

TEST(AsyncScheduler, SnapshotIsCoherentWhilePolledConcurrently) {
  std::atomic<bool> released{false};
  StreamConfig config;
  config.service.threads = 2;
  config.queueCapacity = 4;
  config.solveOverride = [&](const service::Request&) -> service::RequestOutcome {
    // Slow solve: keep work genuinely in flight while the poller hammers
    // snapshot(); spin-wait so release is immediate once flipped.
    while (!released.load()) std::this_thread::sleep_for(std::chrono::microseconds(50));
    service::RequestOutcome outcome;
    outcome.ok = true;
    return outcome;
  };
  AsyncScheduler scheduler(config);

  std::atomic<bool> stop{false};
  std::thread poller([&] {
    while (!stop.load()) {
      expectCoherent(scheduler.snapshot());
    }
  });
  std::vector<std::future<service::RequestOutcome>> futures;
  for (std::uint64_t i = 0; i < 6; ++i) {
    futures.push_back(scheduler.submit(makeRequest(70 + i)));
  }
  // Provably mid-burst: workers hold two jobs, the queue holds the rest.
  while (scheduler.snapshot().inFlight < 6) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  expectCoherent(scheduler.snapshot());
  released.store(true);
  for (auto& future : futures) EXPECT_TRUE(future.get().ok);
  stop.store(true);
  poller.join();

  scheduler.drain();
  const StreamStats done = scheduler.snapshot();
  expectCoherent(done);
  EXPECT_EQ(done.inFlight, 0u);
  EXPECT_EQ(done.queueDepth, 0u);
  EXPECT_EQ(done.inflightKeys, 0u);
  EXPECT_EQ(done.parkedWaiters, 0u);
  EXPECT_EQ(done.submitted, 6u);
}

TEST(AsyncScheduler, SnapshotCountsParkedWaiters) {
  std::mutex gate_mutex;
  std::condition_variable gate_cv;
  bool released = false;
  StreamConfig config;
  // Two workers: one blocks inside the gated solve while the other pops and
  // parks both duplicates (a single worker could never reach them).
  config.service.threads = 2;
  config.queueCapacity = 8;
  config.solveOverride = [&](const service::Request&) -> service::RequestOutcome {
    std::unique_lock lock(gate_mutex);
    gate_cv.wait(lock, [&] { return released; });
    service::RequestOutcome outcome;
    outcome.ok = true;
    return outcome;
  };
  AsyncScheduler scheduler(config);
  std::vector<std::future<service::RequestOutcome>> futures;
  futures.push_back(scheduler.submit(makeRequest(80)));
  futures.push_back(scheduler.submit(makeRequest(80)));  // identical: parks
  futures.push_back(scheduler.submit(makeRequest(80)));  // identical: parks
  // Wait until the worker owns the key and both duplicates are parked on it.
  while (scheduler.snapshot().waitersAttached < 2) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  const StreamStats mid = scheduler.snapshot();
  expectCoherent(mid);
  EXPECT_EQ(mid.inflightKeys, 1u);
  EXPECT_EQ(mid.parkedWaiters, 2u);
  EXPECT_EQ(mid.inFlight, 3u);
  {
    std::lock_guard lock(gate_mutex);
    released = true;
  }
  gate_cv.notify_all();
  for (auto& future : futures) EXPECT_TRUE(future.get().ok);
  scheduler.drain();
  const StreamStats done = scheduler.snapshot();
  EXPECT_EQ(done.parkedWaiters, 0u);
  EXPECT_EQ(done.inflightKeys, 0u);
}

// -- Deadlines and fault sites ----------------------------------------------

TEST(AsyncScheduler, QueueExpiredRequestGetsFlaggedTimeoutNotAHang) {
  std::mutex mutex;
  std::condition_variable cv;
  bool entered = false;
  bool release = false;
  StreamConfig config;
  config.service.threads = 1;
  config.queueCapacity = 4;
  config.solveOverride = [&](const service::Request& request) -> service::RequestOutcome {
    if (request.name == "blocker-100") {
      std::unique_lock lock(mutex);
      entered = true;
      cv.notify_all();
      cv.wait(lock, [&] { return release; });
    }
    service::RequestOutcome outcome;
    outcome.ok = true;
    return outcome;
  };
  AsyncScheduler scheduler(config);
  std::future<service::RequestOutcome> blocker =
      scheduler.submit(makeRequest(100, 6, "blocker"));
  {
    std::unique_lock lock(mutex);
    ASSERT_TRUE(cv.wait_for(lock, std::chrono::seconds(5), [&] { return entered; }));
  }
  // Queued behind the latched worker with a 30ms deadline it cannot make.
  service::Request doomed = makeRequest(101);
  doomed.deadline = service::Deadline::in(30);
  std::future<service::RequestOutcome> future = scheduler.submit(doomed);
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  {
    std::lock_guard lock(mutex);
    release = true;
  }
  cv.notify_all();

  EXPECT_TRUE(blocker.get().ok);
  const service::RequestOutcome outcome = future.get();
  EXPECT_FALSE(outcome.ok);
  EXPECT_TRUE(outcome.timedOut);
  EXPECT_NE(outcome.error.find("while queued"), std::string::npos);
  scheduler.drain();
  const StreamStats stats = scheduler.snapshot();
  EXPECT_EQ(stats.failed, 1u);  // timeouts land in the failed bucket
  expectInvariant(stats);
}

TEST(AsyncScheduler, CoalescedWaiterPastDeadlineGetsTimeoutNotLateResult) {
  std::mutex mutex;
  std::condition_variable cv;
  bool solving = false;
  bool release = false;
  StreamConfig config;
  config.service.threads = 2;
  config.queueCapacity = 8;
  config.solveOverride = [&](const service::Request&) -> service::RequestOutcome {
    std::unique_lock lock(mutex);
    solving = true;
    cv.notify_all();
    cv.wait(lock, [&] { return release; });
    service::RequestOutcome outcome;
    outcome.ok = true;
    return outcome;
  };
  AsyncScheduler scheduler(config);
  std::future<service::RequestOutcome> owner = scheduler.submit(makeRequest(110));
  {
    // The owner must hold the key before its duplicate arrives: two workers
    // popping both at once could otherwise let the duplicate claim it.
    std::unique_lock lock(mutex);
    cv.wait(lock, [&] { return solving; });
  }
  // Identical request parks on the in-flight solve, but with a deadline that
  // expires while the owner is still latched.
  service::Request duplicate = makeRequest(110);
  duplicate.deadline = service::Deadline::in(50);
  std::future<service::RequestOutcome> parked = scheduler.submit(duplicate);
  while (scheduler.snapshot().waitersAttached < 1) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(120));
  {
    std::lock_guard lock(mutex);
    release = true;
  }
  cv.notify_all();

  EXPECT_TRUE(owner.get().ok);
  const service::RequestOutcome expired = parked.get();
  EXPECT_FALSE(expired.ok);
  EXPECT_TRUE(expired.timedOut);
  EXPECT_NE(expired.error.find("coalesced"), std::string::npos);
  scheduler.drain();
  expectInvariant(scheduler.snapshot());
}

TEST(AsyncScheduler, InlineModeChecksDeadlineBeforeSolving) {
  StreamConfig config;
  config.service.threads = 0;
  AsyncScheduler scheduler(config);
  service::Request request = makeRequest(120);
  request.deadline = service::Deadline::in(0.01);
  std::this_thread::sleep_for(std::chrono::milliseconds(5));  // guarantee expiry
  const service::RequestOutcome outcome = scheduler.submit(request).get();
  EXPECT_FALSE(outcome.ok);
  EXPECT_TRUE(outcome.timedOut);
  EXPECT_NE(outcome.error.find("before solving"), std::string::npos);
}

TEST(AsyncScheduler, SubmitFaultSitePresentsAsAdmissionRefusal) {
  StreamConfig config;
  config.service.threads = 1;
  AsyncScheduler scheduler(config);
  {
    fault::ScopedFaultSpec scope("sched.submit");
    EXPECT_FALSE(scheduler.trySubmit(
        makeRequest(130), [](const service::Request&, const service::RequestOutcome&) {}));
    EXPECT_THROW((void)scheduler.submit(makeRequest(131)), ModelError);
  }
  // Disarmed, the same scheduler admits and solves normally.
  EXPECT_TRUE(scheduler.submit(makeRequest(132)).get().ok);
  scheduler.drain();
}

}  // namespace
}  // namespace pipesched::stream
