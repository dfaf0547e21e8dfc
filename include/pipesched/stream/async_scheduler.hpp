// AsyncScheduler — the continuously-fed front of the portfolio service.
//
// Where service::SchedulingService::solveBatch is a barrier (load everything,
// block, return), AsyncScheduler is a faucet: submit(Request) enqueues onto a
// bounded channel and returns a std::future<RequestOutcome> immediately (or
// invokes a completion callback); config.service.threads worker threads
// drain the channel, answer from the shared result cache, coalesce duplicates
// that are in flight (at most maxCoalescedWaiters parked per key — duplicates
// past the cap solve directly so an all-duplicates stream cannot buffer
// unboundedly), and solve misses through the wrapped SchedulingService. A
// full channel blocks submit() — backpressure, not unbounded buffering.
//
// Determinism contract (the stream-vs-batch equivalence tests pin this):
// each request's outcome is byte-identical under describeOutcome() to what
// solveBatch() produces for the same request, whatever the worker count,
// queue capacity, cache state, or arrival order — because every solve path
// (fresh, cached, coalesced) funnels through the portfolio's deterministic
// merge. Only the provenance flags (fromCache/deduped), which
// describeOutcome() excludes, depend on timing.
//
// Parallelism shape mirrors solveBatch: cross-request concurrency comes from
// the same ServiceConfig::threads knob; within-request solving runs serially
// inside its worker. threads == 0 is inline mode: submit() solves on the
// calling thread and returns a ready future — no thread at all, fully ordered
// output, the serial reference mode of the equivalence tests.
//
// Lifecycle: drain() blocks until everything submitted has completed;
// close() additionally stops admission and joins the workers (pending work
// still completes — shutdown never drops accepted requests). The destructor
// close()s. submit() after close() throws ModelError.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <future>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "pipesched/obs/trace.hpp"
#include "pipesched/service/service.hpp"
#include "pipesched/stream/channel.hpp"

namespace pipesched::stream {

struct StreamConfig {
  /// Configuration of the wrapped SchedulingService (cache, portfolio).
  /// service.threads sizes the worker threads draining the request channel
  /// (default 1); 0 = inline execution (see the file comment).
  service::ServiceConfig service{.threads = 1};

  /// Request-channel capacity; submit() blocks when this many requests are
  /// queued and unclaimed (backpressure).
  std::size_t queueCapacity = 64;

  /// Cap on duplicates parked per in-flight canonical key. Parked waiters
  /// live OUTSIDE the bounded channel (their pop freed a slot), so without a
  /// cap an all-duplicates stream could buffer unboundedly many requests
  /// while one solve is in flight. Past the cap a duplicate is *rejected
  /// from the coalescing list* and solved by the popping worker instead —
  /// identical outcome (the portfolio is deterministic), bounded memory:
  /// at most threads * maxCoalescedWaiters jobs are ever parked, and once
  /// every worker is busy the channel's backpressure reasserts itself.
  /// Counted in StreamStats::coalesceOverflow. 0 disables coalescing
  /// entirely (every duplicate solves on its popping worker).
  std::size_t maxCoalescedWaiters = 16;

  /// Test/instrumentation hook: when set, replaces the wrapped service's
  /// solve (cache included — the override bypasses it) for every request.
  /// In-flight coalescing still applies. Exists to make worker scheduling,
  /// coalescing and failure paths deterministic in tests.
  std::function<service::RequestOutcome(const service::Request&)> solveOverride;
};

/// One coherent poll of the scheduler (AsyncScheduler::snapshot()). The
/// counters are monotone. Every completed request lands in exactly one of
/// {solved, cacheHits, coalesced, failed}:
///   solved + cacheHits + coalesced + failed == completed.
/// The scheduler-owned fields are copied under a single lock, so inFlight is
/// submitted - completed at one instant (never negative, never above
/// submitted), and queueDepth is clamped to queueCapacity.
struct StreamStats {
  std::uint64_t submitted = 0;
  std::uint64_t completed = 0;
  std::uint64_t solved = 0;     ///< fresh portfolio solves that succeeded
  std::uint64_t cacheHits = 0;  ///< served from the result cache
  std::uint64_t coalesced = 0;  ///< shared an identical in-flight request's ok solve
  std::uint64_t failed = 0;     ///< outcomes with ok == false
  std::uint64_t waitersAttached = 0;    ///< duplicates parked on an in-flight solve
  std::uint64_t coalesceOverflow = 0;   ///< duplicates solved directly because the
                                        ///< per-key waiter list was at its cap
  std::uint64_t callbackExceptions = 0; ///< completion callbacks that threw (contained)
  std::size_t maxInFlight = 0;  ///< high-water of submitted - completed
  ChannelStats queue;           ///< channel counters (pushWaits = backpressure)
  std::uint64_t inFlight = 0;      ///< submitted - completed at snapshot time
  std::size_t inflightKeys = 0;    ///< canonical keys currently being solved
  std::size_t parkedWaiters = 0;   ///< duplicates parked across those keys
  std::size_t queueDepth = 0;      ///< jobs waiting in the channel, <= capacity
  std::size_t queueCapacity = 0;
};

class AsyncScheduler {
 public:
  using Callback =
      std::function<void(const service::Request&, const service::RequestOutcome&)>;

  explicit AsyncScheduler(StreamConfig config = {});

  /// close()s: blocks until every accepted request has completed.
  ~AsyncScheduler();

  AsyncScheduler(const AsyncScheduler&) = delete;
  AsyncScheduler& operator=(const AsyncScheduler&) = delete;

  [[nodiscard]] const StreamConfig& config() const noexcept { return config_; }

  /// Enqueues the request (blocking while the channel is full) and returns
  /// the future of its outcome: the callback form below, with a callback
  /// that fulfils a promise. The future never carries an exception from
  /// solving — solver failures surface as outcomes with ok == false.
  /// Throws ModelError after close().
  [[nodiscard]] std::future<service::RequestOutcome> submit(service::Request request);

  /// Callback form: `callback(request, outcome)` runs on the completing
  /// worker (on the caller in inline mode). A throwing callback is contained
  /// and counted in StreamStats::callbackExceptions.
  void submit(service::Request request, Callback callback);

  /// Admission-controlled submit: never blocks. Returns false — without
  /// accepting the request — when the channel is full or the scheduler is
  /// closed; the caller sheds load instead of stalling (the serving tier
  /// answers 503). On true the request is accepted exactly like submit().
  /// In inline mode the request solves in place (there is no queue to
  /// fill), so only close() can make this return false.
  [[nodiscard]] bool trySubmit(service::Request request, Callback callback);

  /// Blocks until completed == submitted. Does not stop admission — other
  /// threads may keep submitting (drain() then waits for those too while
  /// they keep arriving; quiesce your producers first).
  void drain();

  /// Stops admission, waits for pending work, joins the workers. Idempotent.
  void close();

  /// The one read of the scheduler's state: counters, in-flight tallies and
  /// queue depth, coherent on every poll, mid-burst included (see
  /// StreamStats). The channel counters have their own lock and are read
  /// just after.
  [[nodiscard]] StreamStats snapshot() const;

  /// The wrapped service's result-cache counters.
  [[nodiscard]] service::CacheStats cacheStats() const { return service_.cacheStats(); }

  /// The wrapped service's sub-result cache counters (cross-request work
  /// sharing — the serve path benefits automatically on fresh solves).
  [[nodiscard]] service::CacheStats subCacheStats() const { return service_.subCacheStats(); }

 private:
  struct Job {
    service::Request request;
    /// requestIdentity(request), computed on the solving worker (not in
    /// submit — the producer thread must not serialize the walk): .key is
    /// the coalescing identity, both halves go to the service so nothing
    /// downstream re-canonicalizes.
    service::RequestIdentity identity{};
    Callback callback;
    /// Enqueue timestamp for the queue-wait stage; stamped at admission only
    /// while observability is on and there is a queue (`timed`), so the
    /// disabled path never reads the clock.
    obs::TraceClock::time_point enqueuedAt{};
    bool timed = false;
  };

  void workerLoop();

  /// The one admission routine behind submit() and trySubmit(): refuses on
  /// an armed `sched.submit` fault or after close(), otherwise counts the
  /// job in and runs it inline (no workers) or enqueues it — blocking on
  /// a full channel only when `block`. Returns nullptr once accepted, else
  /// the refusal message (the caller throws it or reports false).
  [[nodiscard]] const char* admit(Job& job, bool block);

  /// The worker/inline prologue: records the queue wait, opens the trace
  /// (parse, queue wait), fingerprints the request, and answers an already
  /// expired deadline with a flagged timeout (`expiredWhere` names the
  /// phase). Returns false when the job is thereby finished.
  [[nodiscard]] bool prologue(Job& job, const char* expiredWhere,
                              std::optional<obs::RequestTrace>& trace);

  [[nodiscard]] service::RequestOutcome solveOne(const Job& job, obs::RequestTrace* trace);
  void finish(Job& job, service::RequestOutcome outcome, bool coalescedCopy);

  StreamConfig config_;
  service::SchedulingService service_;
  BoundedChannel<Job> channel_;

  mutable std::mutex mutex_;  // guards stats_, accepting_, inflight_
  std::condition_variable allDone_;
  StreamStats stats_;
  bool accepting_ = true;
  std::mutex joinMutex_;  // serializes worker join in close()
  bool joined_ = false;   // guarded by joinMutex_
  /// Request key -> duplicates parked while the key's first job solves.
  std::unordered_map<std::string, std::vector<Job>> inflight_;

  std::vector<std::thread> workers_;
};

}  // namespace pipesched::stream
