// obs::Registry under register-while-record-while-snapshot storms. The
// registry's contract is precise: lookup/registration and snapshot take the
// mutex, recording never does (relaxed atomics on pointer-stable metric
// objects). These tests race all three at once — new names registering while
// cached references record and a poller snapshots — and then assert exact
// totals once writers quiesce, which is the documented semantics of relaxed
// counters.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "pipesched/obs/metrics.hpp"

namespace pipesched::obs {
namespace {

/// Writers hammer metrics they looked up once (the documented hot-path
/// pattern) while a registrar keeps growing the registry with fresh names
/// and two pollers snapshot nonstop. Deque-backed storage must keep every
/// handed-out reference valid throughout; totals must be exact at the end.
TEST(StressRegistry, RegisterWhileRecordWhileSnapshot) {
  Registry registry;  // fresh instance: totals are fully determined by this test
  constexpr std::size_t kWriters = 3;
  constexpr std::uint64_t kAddsPerWriter = 60000;
  std::atomic<bool> stop{false};

  Counter& shared = registry.counter("stress.shared");
  Histogram& latency = registry.histogram("stress.latency", Unit::kNanoseconds);

  std::vector<std::thread> threads;
  for (std::size_t w = 0; w < kWriters; ++w) {
    threads.emplace_back([&, w] {
      Counter& own = registry.counter("stress.writer." + std::to_string(w));
      Gauge& gauge = registry.gauge("stress.depth." + std::to_string(w));
      for (std::uint64_t i = 0; i < kAddsPerWriter; ++i) {
        shared.add();
        own.add(2);
        gauge.add(i % 2 == 0 ? 1 : -1);
        latency.record(i % 1024);
      }
    });
  }
  // Registrar: keeps the registry mutating (deque growth, name scans) while
  // the writers record lock-free into earlier rows.
  threads.emplace_back([&] {
    std::size_t n = 0;
    while (!stop.load()) {
      registry.counter("stress.registrar." + std::to_string(n % 256)).add();
      registry.histogram("stress.hist." + std::to_string(n % 64)).record(n);
      ++n;
    }
  });
  // Pollers: snapshots must always be well-formed (monotone counter values
  // are not asserted mid-flight — relaxed ordering only promises exactness
  // at quiescence — but structure and self-consistency are).
  for (int p = 0; p < 2; ++p) {
    threads.emplace_back([&] {
      while (!stop.load()) {
        const Snapshot snap = registry.snapshot();
        for (const auto& row : snap.histograms) {
          std::uint64_t total = 0;
          for (const std::uint64_t b : row.hist.buckets) total += b;
          EXPECT_EQ(total, row.hist.count);
        }
      }
    });
  }

  for (std::size_t w = 0; w < kWriters; ++w) threads[w].join();
  stop.store(true);
  for (std::size_t i = kWriters; i < threads.size(); ++i) threads[i].join();

  // Writers quiesced: relaxed totals are exact now.
  EXPECT_EQ(shared.value(), kWriters * kAddsPerWriter);
  for (std::size_t w = 0; w < kWriters; ++w) {
    EXPECT_EQ(registry.counter("stress.writer." + std::to_string(w)).value(),
              2 * kAddsPerWriter);
    EXPECT_EQ(registry.gauge("stress.depth." + std::to_string(w)).value(),
              static_cast<std::int64_t>(kAddsPerWriter % 2 == 0 ? 0 : 1));
  }
  const HistogramSnapshot hist = latency.snapshot();
  EXPECT_EQ(hist.count, kWriters * kAddsPerWriter);
}

/// reset() racing recorders and snapshotters: an operator zeroing a live
/// registry must never corrupt structure. Post-quiescence, a final reset
/// yields exact zeros everywhere.
TEST(StressRegistry, ResetRacingRecorders) {
  Registry registry;
  Counter& counter = registry.counter("stress.reset.counter");
  Histogram& hist = registry.histogram("stress.reset.hist");
  std::atomic<bool> stop{false};

  std::vector<std::thread> threads;
  for (int w = 0; w < 3; ++w) {
    threads.emplace_back([&] {
      while (!stop.load()) {
        counter.add();
        hist.record(7);
      }
    });
  }
  threads.emplace_back([&] {
    for (int i = 0; i < 500; ++i) {
      registry.reset();
      const Snapshot snap = registry.snapshot();
      for (const auto& row : snap.histograms) {
        std::uint64_t total = 0;
        for (const std::uint64_t b : row.hist.buckets) total += b;
        EXPECT_EQ(total, row.hist.count);
      }
    }
    stop.store(true);
  });
  for (std::thread& t : threads) t.join();

  registry.reset();
  EXPECT_EQ(counter.value(), 0u);
  EXPECT_EQ(hist.snapshot().count, 0u);
}

/// The process-wide registry + enable-flag flips, as the serve paths use
/// them: instrumentation sites check metricsEnabled() then record, while
/// another thread toggles the flag (CLI re-entry does exactly this). The
/// flag is a relaxed atomic — flips must be race-free and recording must
/// stay valid whichever side of the flip a site lands on.
TEST(StressRegistry, EnableFlagFlipsDuringRecording) {
  const bool before = metricsEnabled();
  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> recorded{0};

  std::vector<std::thread> threads;
  for (int w = 0; w < 2; ++w) {
    threads.emplace_back([&] {
      Counter& counter = registry().counter("stress.flag.counter");
      while (!stop.load()) {
        if (metricsEnabled()) {
          counter.add();
          recorded.fetch_add(1);
        }
      }
    });
  }
  threads.emplace_back([&] {
    // At least 2000 flips, then on until a recorder has landed inside an
    // enabled window: on a loaded machine the recorders may get no CPU during
    // the first 2000. Bounded, so a recording that never happens still fails
    // below.
    const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
    for (int i = 0; i < 2000 || (recorded.load() == 0 &&
                                 std::chrono::steady_clock::now() < deadline);
         ++i) {
      ScopedMetricsEnabled scoped(i % 2 == 0);
      std::this_thread::yield();
    }
    stop.store(true);
  });
  for (std::thread& t : threads) t.join();
  setMetricsEnabled(before);
  // Sanity: the storm actually recorded through enabled windows.
  EXPECT_GT(recorded.load(), 0u);
}

}  // namespace
}  // namespace pipesched::obs
