#include "pipesched/stream/async_scheduler.hpp"

#include <algorithm>
#include <memory>
#include <optional>
#include <utility>

#include "pipesched/fault/fault.hpp"
#include "pipesched/obs/metrics.hpp"
#include "pipesched/service/fingerprint.hpp"

namespace pipesched::stream {

namespace {

/// The flagged timeout every expiry path hands to finish(): never a hang,
/// never a silent drop — ok == false, timedOut == true, explanatory error.
service::RequestOutcome timeoutOutcome(const service::Fingerprint& fp, const char* where) {
  service::RequestOutcome outcome;
  outcome.ok = false;
  outcome.timedOut = true;
  outcome.error = std::string("deadline exceeded ") + where;
  outcome.fingerprint = fp;
  return outcome;
}

}  // namespace

AsyncScheduler::AsyncScheduler(StreamConfig config)
    : config_(std::move(config)),
      service_(config_.service),
      channel_(config_.queueCapacity) {
  workers_.reserve(config_.service.threads);
  for (std::size_t i = 0; i < config_.service.threads; ++i) {
    workers_.emplace_back([this] { workerLoop(); });
  }
}

AsyncScheduler::~AsyncScheduler() { close(); }

service::RequestOutcome AsyncScheduler::solveOne(const Job& job, obs::RequestTrace* trace) {
  // Never let an exception escape into a worker: a throwing solve (or
  // override) becomes a failed outcome, exactly like solveBatch's per-slot
  // error isolation.
  service::RequestOutcome outcome;
  try {
    if (config_.solveOverride) {
      const obs::TraceClock::time_point start =
          trace != nullptr ? obs::TraceClock::now() : obs::TraceClock::time_point{};
      outcome = config_.solveOverride(job.request);
      if (trace != nullptr) trace->totalSeconds += obs::secondsSince(start);
    } else {
      // The three-arg overload folds its wall time into the trace and
      // attaches it to the outcome.
      outcome = service_.solve(job.request, job.identity, trace);
    }
  } catch (const std::exception& e) {
    outcome.ok = false;
    outcome.error = e.what();
  } catch (...) {
    outcome.ok = false;
    outcome.error = "unknown exception while solving";
  }
  if (trace != nullptr && outcome.trace == nullptr) {
    // Override and exception paths: the service never consumed the trace.
    outcome.trace = std::make_shared<const obs::RequestTrace>(std::move(*trace));
  }
  outcome.fingerprint = job.identity.fp;  // overrides/failures included
  return outcome;
}

void AsyncScheduler::finish(Job& job, service::RequestOutcome outcome, bool coalescedCopy) {
  // Callback first (it observes the outcome by reference), then the
  // counters — drain() waiters must only unblock once the user-visible
  // completion has fully happened.
  if (job.callback) {
    try {
      job.callback(job.request, outcome);
    } catch (...) {
      std::lock_guard lock(mutex_);
      ++stats_.callbackExceptions;
    }
  }
  {
    std::lock_guard lock(mutex_);
    ++stats_.completed;
    if (!outcome.ok) ++stats_.failed;
    else if (coalescedCopy) ++stats_.coalesced;
    else if (outcome.fromCache) ++stats_.cacheHits;
    else ++stats_.solved;
  }
  if (coalescedCopy && obs::metricsEnabled()) {
    static obs::Counter& coalesced = obs::registry().counter(obs::names::kCoalesced);
    coalesced.add();
  }
  allDone_.notify_all();
}

bool AsyncScheduler::prologue(Job& job, const char* expiredWhere,
                              std::optional<obs::RequestTrace>& trace) {
  // Queue wait (admission -> this pop) and a sample of the post-pop queue
  // depth, for queued jobs only. `job.timed` gates the clock read, the
  // metrics flag gates the registry — both off costs two branches.
  double queueWait = 0;
  if (job.timed) {
    queueWait = obs::secondsSince(job.enqueuedAt);
    if (obs::metricsEnabled()) {
      obs::stageHistogram(obs::Stage::kQueueWait).recordSeconds(queueWait);
      static obs::Histogram& depth =
          obs::registry().histogram(obs::names::kQueueDepth, obs::Unit::kCount);
      depth.record(channel_.size());
    }
  }
  if (obs::tracingEnabled()) {
    trace.emplace();
    trace->totalSeconds = job.request.parseSeconds + queueWait;
    if (job.request.parseSeconds > 0) {
      trace->add(obs::Stage::kParse, job.request.parseSeconds);
    }
    if (job.timed) trace->add(obs::Stage::kQueueWait, queueWait);
  }
  // Canonicalize on the worker, not in submit(): a single producer thread
  // (the engine pump, a serve loop) must not serialize the per-request
  // walk that N workers could do in parallel.
  obs::TraceSpan fingerprintSpan(obs::Stage::kFingerprint, trace ? &*trace : nullptr);
  job.identity = service::requestIdentity(job.request);
  const double fingerprintSeconds = fingerprintSpan.stop();
  if (trace) trace->totalSeconds += fingerprintSeconds;
  if (!job.request.deadline.expired()) return true;
  // A request that expired before its turn is answered with a flagged
  // timeout and never solved: under saturation, burning a worker on a result
  // nobody can use anymore only pushes every later deadline over too.
  service::RequestOutcome outcome = timeoutOutcome(job.identity.fp, expiredWhere);
  if (trace) outcome.trace = std::make_shared<const obs::RequestTrace>(std::move(*trace));
  if (obs::metricsEnabled()) {
    obs::registry().counter(obs::names::kTimeoutQueueExpired).add();
  }
  finish(job, std::move(outcome), /*coalescedCopy=*/false);
  return false;
}

void AsyncScheduler::workerLoop() {
  while (std::optional<Job> popped = channel_.pop()) {
    Job job = std::move(*popped);
    std::optional<obs::RequestTrace> trace;
    if (!prologue(job, "while queued", trace)) continue;
    bool ownsKey = false;
    {
      std::lock_guard lock(mutex_);
      const auto it = inflight_.find(job.identity.key);
      if (it == inflight_.end()) {
        inflight_.emplace(job.identity.key, std::vector<Job>{});
        ownsKey = true;
      } else if (it->second.size() < config_.maxCoalescedWaiters) {
        // An identical request is being solved right now: park this one on
        // it and go pop the next — its solver fulfills us when done.
        it->second.push_back(std::move(job));
        ++stats_.waitersAttached;
        continue;
      } else {
        // Waiter list at its cap: parked jobs escape the channel's capacity
        // accounting, so instead of buffering this duplicate we solve it
        // ourselves. The outcome is identical (deterministic portfolio);
        // memory stays bounded and backpressure reasserts once every
        // worker is busy.
        ++stats_.coalesceOverflow;
      }
    }
    service::RequestOutcome outcome = solveOne(job, trace ? &*trace : nullptr);
    std::vector<Job> waiters;
    if (ownsKey) {
      std::lock_guard lock(mutex_);
      const auto it = inflight_.find(job.identity.key);
      waiters = std::move(it->second);
      inflight_.erase(it);
    }
    for (Job& waiter : waiters) {
      // A waiter whose own deadline passed while the owner solved gets a
      // flagged timeout, not a result delivered past its deadline.
      if (waiter.request.deadline.expired()) {
        service::RequestOutcome expiredCopy =
            timeoutOutcome(job.identity.fp, "while coalesced on an in-flight solve");
        expiredCopy.trace = outcome.trace;
        if (obs::metricsEnabled()) {
          obs::registry().counter(obs::names::kTimeoutCoalescedExpired).add();
        }
        finish(waiter, std::move(expiredCopy), /*coalescedCopy=*/true);
        continue;
      }
      service::RequestOutcome copy = outcome;
      copy.deduped = true;
      copy.fromCache = false;
      finish(waiter, std::move(copy), /*coalescedCopy=*/true);
    }
    finish(job, std::move(outcome), /*coalescedCopy=*/false);
  }
}

const char* AsyncScheduler::admit(Job& job, bool block) {
  if (fault::injected(fault::sites::kSchedSubmit)) return "fault injected: sched.submit";
  if (!workers_.empty() && (obs::metricsEnabled() || obs::tracingEnabled())) {
    job.enqueuedAt = obs::TraceClock::now();
    job.timed = true;
  }
  {
    std::lock_guard lock(mutex_);
    if (!accepting_) return "AsyncScheduler: submit after close";
    ++stats_.submitted;
    stats_.maxInFlight =
        std::max<std::size_t>(stats_.maxInFlight, stats_.submitted - stats_.completed);
  }
  if (workers_.empty()) {
    // Inline mode: there is no queue, but a caller can still hand over an
    // already expired deadline — same contract as the worker path.
    std::optional<obs::RequestTrace> trace;
    if (prologue(job, "before solving", trace)) {
      finish(job, solveOne(job, trace ? &*trace : nullptr), /*coalescedCopy=*/false);
    }
    return nullptr;
  }
  if (block ? channel_.push(std::move(job)) : channel_.tryPush(job)) return nullptr;
  // Full (tryPush only), or close() raced us between the accepting_ check and
  // the push. Roll the admission back and re-wake drain() waiters: the
  // rollback may have just made completed == submitted without any finish()
  // left to signal it.
  {
    std::lock_guard lock(mutex_);
    --stats_.submitted;
  }
  allDone_.notify_all();
  return "AsyncScheduler: closed while submitting";
}

std::future<service::RequestOutcome> AsyncScheduler::submit(service::Request request) {
  // Shared: the Callback is a copyable std::function, a promise is not.
  auto promise = std::make_shared<std::promise<service::RequestOutcome>>();
  std::future<service::RequestOutcome> future = promise->get_future();
  submit(std::move(request),
         [promise](const service::Request&, const service::RequestOutcome& outcome) {
           promise->set_value(outcome);
         });
  return future;
}

void AsyncScheduler::submit(service::Request request, Callback callback) {
  Job job{.request = std::move(request), .callback = std::move(callback)};
  if (const char* refusal = admit(job, /*block=*/true)) throw ModelError(refusal);
}

bool AsyncScheduler::trySubmit(service::Request request, Callback callback) {
  // Every refusal (full channel, close, an armed `sched.submit` fault) reads
  // as `false`: callers already handle the shed path, so injection
  // exercises it.
  Job job{.request = std::move(request), .callback = std::move(callback)};
  return admit(job, /*block=*/false) == nullptr;
}

void AsyncScheduler::drain() {
  std::unique_lock lock(mutex_);
  allDone_.wait(lock, [&] { return stats_.completed == stats_.submitted; });
}

void AsyncScheduler::close() {
  {
    std::lock_guard lock(mutex_);
    accepting_ = false;
  }
  channel_.close();  // workers drain what was accepted, then exit
  // Serialize the join: a second close() (or the destructor after a user
  // close) blocks here until the first finishes, so "close returned" always
  // means "workers are gone".
  std::lock_guard joinLock(joinMutex_);
  if (joined_) return;
  for (std::thread& worker : workers_) worker.join();
  joined_ = true;
}

StreamStats AsyncScheduler::snapshot() const {
  StreamStats snap;
  {
    // One critical section for every scheduler-owned counter: inFlight and
    // the parked-waiter tallies are derived while nothing can move.
    std::lock_guard lock(mutex_);
    snap = stats_;
    snap.inFlight = stats_.submitted - stats_.completed;
    snap.inflightKeys = inflight_.size();
    for (const auto& [key, waiters] : inflight_) snap.parkedWaiters += waiters.size();
  }
  // The channel has its own lock; its size is instantaneously consistent but
  // not atomic with the block above, so clamp to the documented invariant.
  snap.queueCapacity = config_.queueCapacity;
  snap.queueDepth = std::min(channel_.size(), snap.queueCapacity);
  snap.queue = channel_.stats();
  return snap;
}

}  // namespace pipesched::stream
