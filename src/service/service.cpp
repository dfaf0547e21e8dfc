#include "pipesched/service/service.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <exception>
#include <memory>
#include <optional>
#include <sstream>
#include <string_view>
#include <thread>
#include <unordered_map>
#include <utility>

#include "pipesched/fault/fault.hpp"
#include "pipesched/obs/metrics.hpp"
#include "pipesched/obs/trace.hpp"

namespace pipesched::service {

namespace {

using Clock = std::chrono::steady_clock;

/// The batch row of `solver`, appended on first sight — rows stay in
/// first-seen order, which is deterministic because solves are folded in
/// input order and members race in fixed catalog order.
MemberBatchStats& memberRow(std::vector<MemberBatchStats>& rows, const std::string& solver) {
  auto it = std::find_if(rows.begin(), rows.end(),
                         [&](const MemberBatchStats& m) { return m.solver == solver; });
  if (it != rows.end()) return *it;
  return rows.emplace_back(MemberBatchStats{solver});
}

/// Starts `trace` with the request's parse stage.
void openTrace(const Request& request, obs::RequestTrace& trace) {
  trace.totalSeconds = request.parseSeconds;
  if (request.parseSeconds > 0) trace.add(obs::Stage::kParse, request.parseSeconds);
}

/// The request's own opened trace when tracing is on, else null.
std::shared_ptr<obs::RequestTrace> openTrace(const Request& request) {
  if (!obs::tracingEnabled()) return nullptr;
  auto trace = std::make_shared<obs::RequestTrace>();
  openTrace(request, *trace);
  return trace;
}

/// Walks the request's identity under a fingerprint span, folded into
/// `trace` when one is open. The span starts at `boundary` unless that is
/// the epoch, and leaves its stop time there for the stage that follows.
RequestIdentity identify(const Request& request, obs::RequestTrace* trace,
                         obs::TraceClock::time_point& boundary) {
  obs::TraceSpan fingerprintSpan(obs::Stage::kFingerprint, trace, boundary);
  RequestIdentity identity = requestIdentity(request);
  const double fingerprintSeconds = fingerprintSpan.stop();
  if (trace != nullptr) trace->totalSeconds += fingerprintSeconds;
  boundary = fingerprintSpan.stoppedAt();
  return identity;
}

/// Adds a fresh solve's stage timings and per-member walls to `trace`.
/// Cache hits never come through here: a hit repeats a prior solve's result,
/// not its work, so its trace carries only the lookup.
void addSolveStages(obs::RequestTrace& trace, const PortfolioResult& result) {
  trace.add(obs::Stage::kMemberSolve, result.memberRaceSeconds);
  trace.add(obs::Stage::kMerge, result.mergeSeconds);
  trace.members.reserve(result.solvers.size());
  for (const SolverContribution& c : result.solvers) {
    trace.members.emplace_back(c.solver, c.wallSeconds);
  }
}

/// Registry counters mirroring the solved/cache-hit/failed outcome buckets.
/// An in-batch duplicate counts only as failed or degraded: its work and its
/// lookup belong to the slot it copies.
void countOutcome(const RequestOutcome& outcome) {
  if (!obs::metricsEnabled()) return;
  static obs::Counter& solved = obs::registry().counter(obs::names::kRequestsSolved);
  static obs::Counter& cacheHits = obs::registry().counter(obs::names::kRequestsCacheHit);
  static obs::Counter& failed = obs::registry().counter(obs::names::kRequestsFailed);
  if (!outcome.ok) {
    failed.add();
    return;
  }
  if (!outcome.deduped) (outcome.fromCache ? cacheHits : solved).add();
  if (outcome.result.degraded) {
    obs::registry().counter(obs::names::kDegradedResponses).add();
  }
}

}  // namespace

void BatchStats::addSolve(const std::vector<SolverContribution>& solvers) {
  solved += 1;
  for (const SolverContribution& c : solvers) {
    memberRow(members, c.solver).add(c);
    subHits += c.reused + c.seeded;
    subUnitsReused += c.reused;
  }
}

void BatchStats::merge(const BatchStats& other) {
  requests += other.requests;
  solved += other.solved;
  failed += other.failed;
  cacheHits += other.cacheHits;
  deduped += other.deduped;
  wallSeconds += other.wallSeconds;
  requestsPerSecond = wallSeconds > 0 ? static_cast<double>(requests) / wallSeconds : 0;
  subHits += other.subHits;
  subUnitsReused += other.subUnitsReused;
  for (const MemberBatchStats& m : other.members) memberRow(members, m.solver).merge(m);
}

SchedulingService::SchedulingService(ServiceConfig config)
    : config_(config),
      cache_(config.cacheCapacity),
      subCache_(config.subCacheCapacity) {}

RequestOutcome SchedulingService::solve(const Request& request) {
  std::shared_ptr<obs::RequestTrace> trace = openTrace(request);
  obs::TraceClock::time_point boundary;
  const RequestIdentity identity = identify(request, trace.get(), boundary);
  return run(request, identity, std::move(trace), boundary);
}

RequestOutcome SchedulingService::solve(const Request& request,
                                        const RequestIdentity& identity) {
  // The identity walk happened outside; its cost is the caller's to report.
  return run(request, identity, openTrace(request));
}

RequestOutcome SchedulingService::solve(const Request& request,
                                        const RequestIdentity& identity,
                                        obs::RequestTrace* trace) {
  return run(request, identity,
             trace != nullptr ? std::make_shared<obs::RequestTrace>(std::move(*trace))
                              : nullptr);
}

RequestOutcome SchedulingService::run(const Request& request, const RequestIdentity& identity,
                                      std::shared_ptr<obs::RequestTrace> trace,
                                      obs::TraceClock::time_point boundary) {
  if (std::optional<RequestOutcome> hit = lookup(identity, trace, boundary)) {
    return std::move(*hit);
  }
  RequestOutcome outcome = solveMiss(request, identity, trace.get());
  store(identity, outcome, std::move(trace));
  return outcome;
}

std::optional<RequestOutcome> SchedulingService::lookup(
    const RequestIdentity& identity, std::shared_ptr<obs::RequestTrace> trace,
    obs::TraceClock::time_point& boundary) {
  obs::TraceSpan lookupSpan(obs::Stage::kCacheLookup, trace.get(), boundary);
  // Armed `cache.get` faults force a miss — the solve path must stay correct
  // (if slower) when the cache tier misbehaves.
  std::optional<PortfolioResult> cached;
  if (!fault::injected(fault::sites::kCacheGet)) {
    cached = cache_.get(identity.fp, identity.key);
  }
  const double lookupSeconds = lookupSpan.stop();
  boundary = lookupSpan.stoppedAt();
  if (trace != nullptr) trace->totalSeconds += lookupSeconds;
  if (!cached) return std::nullopt;
  RequestOutcome outcome;
  outcome.ok = true;
  outcome.result = std::move(*cached);
  outcome.fromCache = true;
  outcome.fingerprint = identity.fp;
  outcome.trace = std::move(trace);
  countOutcome(outcome);
  return outcome;
}

RequestOutcome SchedulingService::solveMiss(const Request& request,
                                            const RequestIdentity& identity,
                                            obs::RequestTrace* trace) {
  const Clock::time_point solveStart = trace != nullptr ? Clock::now() : Clock::time_point{};
  RequestOutcome outcome;
  try {
    const core::Evaluator eval(request.pipeline, request.platform, request.model);
    // Cross-request work sharing: bind this solve to the sub-result cache
    // under the instance's sweep-independent identity. Safe however many
    // solves run at once under this service's one portfolio config —
    // memoized units are pure functions of their keys.
    std::optional<SubShare> share;
    if (subCache_.capacity() > 0) {
      share.emplace(&subCache_, instanceFingerprint(request));
    }
    outcome.result = runPortfolio(eval, request.sweep, config_.portfolio,
                                  share ? &*share : nullptr, request.deadline);
    outcome.ok = true;
  } catch (const std::exception& e) {
    outcome.error = e.what();
  } catch (...) {
    // A non-std exception from a solver must still land in the outcome:
    // letting it fly out of a batch's solving thread would surface as a
    // rethrow after the join, sinking the whole batch for one bad request.
    outcome.error = "unknown exception while solving";
  }
  outcome.fingerprint = identity.fp;
  if (trace != nullptr) {
    trace->totalSeconds += std::chrono::duration<double>(Clock::now() - solveStart).count();
    if (outcome.ok) addSolveStages(*trace, outcome.result);
  }
  return outcome;
}

void SchedulingService::store(const RequestIdentity& identity, RequestOutcome& outcome,
                              std::shared_ptr<obs::RequestTrace> trace) {
  // Degraded (deadline/failure-cut) fronts are partial by timing accident —
  // caching one would serve the truncation to every later identical request.
  if (outcome.ok && !outcome.result.degraded &&
      !fault::injected(fault::sites::kCachePut)) {
    cache_.put(identity.fp, identity.key, outcome.result);
  }
  outcome.trace = std::move(trace);
  countOutcome(outcome);
}

BatchResult SchedulingService::solveBatch(const std::vector<Request>& requests) {
  const Clock::time_point start = Clock::now();

  BatchResult batch;
  batch.outcomes.resize(requests.size());
  batch.stats.requests = requests.size();

  // Group identical requests: each canonical key is solved exactly once, by
  // its first slot, whose trace the group carries (a duplicate slot shares
  // it, like the result it shares).
  struct Group {
    RequestIdentity identity;
    std::vector<std::size_t> indices;  // input slots sharing this key
  };
  // With tracing on, every slot's trace lives in one block that each
  // outcome's trace aliases, so a cache hit attaches its trace without an
  // allocation of its own.
  std::shared_ptr<obs::RequestTrace[]> traces;
  if (obs::tracingEnabled()) traces = std::make_shared<obs::RequestTrace[]>(requests.size());
  const auto traceOf = [&](std::size_t slot) {
    return traces ? std::shared_ptr<obs::RequestTrace>(traces, &traces[slot]) : nullptr;
  };
  // Each new group's cache lookup follows its identity walk directly, on
  // the calling thread. The spans are chained: a lookup starts where its
  // fingerprint span stopped, and each request's fingerprint span where the
  // previous request's last span stopped, so the few tens of nanoseconds
  // between two requests (the previous answer moved into its slot, this
  // trace opened) count toward the fingerprint stage. Then the misses are
  // solved by the calling thread plus up to threads − 1 threads started for
  // this call, each claiming the next miss from one cursor (within-request
  // solving stays serial in its thread). Misses are stored after the join,
  // in group order, so which entries a small cache keeps does not depend on
  // which solve finished first.
  std::vector<Group> groups;
  groups.reserve(requests.size());  // never reallocates: `byKey` views keys in place
  std::unordered_map<std::string_view, std::size_t> byKey;
  std::vector<Group*> misses;
  obs::TraceClock::time_point boundary;
  for (std::size_t i = 0; i < requests.size(); ++i) {
    obs::RequestTrace* const trace = traces ? &traces[i] : nullptr;
    if (trace != nullptr) openTrace(requests[i], *trace);
    RequestIdentity identity = identify(requests[i], trace, boundary);
    if (const auto found = byKey.find(identity.key); found != byKey.end()) {
      groups[found->second].indices.push_back(i);
      continue;
    }
    Group& group = groups.emplace_back(Group{std::move(identity), {i}});
    byKey.emplace(group.identity.key, groups.size() - 1);
    if (std::optional<RequestOutcome> hit = lookup(group.identity, traceOf(i), boundary)) {
      batch.outcomes[i] = std::move(*hit);
    } else {
      misses.push_back(&group);
    }
  }
  {
    // Never more threads than misses: a batch of cache hits starts none.
    const std::size_t helpers =
        std::max<std::size_t>(std::min(config_.threads, misses.size()), 1) - 1;
    std::atomic<std::size_t> cursor{0};
    // errors[0] is the calling thread's, errors[1 + h] helper h's; each
    // thread stops at its first exception.
    std::vector<std::exception_ptr> errors(helpers + 1);
    const auto solveMisses = [&](std::exception_ptr& error) {
      try {
        for (std::size_t m = cursor++; m < misses.size(); m = cursor++) {
          Group& group = *misses[m];
          const std::size_t slot = group.indices.front();
          batch.outcomes[slot] = solveMiss(requests[slot], group.identity,
                                           traces ? &traces[slot] : nullptr);
        }
      } catch (...) {
        error = std::current_exception();
      }
    };
    {
      // Joined at the end of this scope, before any rethrow: the threads
      // write through references into this frame.
      std::vector<std::jthread> threads;
      threads.reserve(helpers);
      for (std::size_t h = 0; h < helpers; ++h) {
        threads.emplace_back([&, h] { solveMisses(errors[1 + h]); });
      }
      solveMisses(errors[0]);
    }
    for (const std::exception_ptr& error : errors) {
      if (error) std::rethrow_exception(error);
    }
  }

  // Stores and stats in group (first-seen) order, then each group's outcome
  // fanned out to its duplicate slots. Every slot lands in exactly one stats
  // bucket: duplicates of a *failed* group count under `failed`, not
  // `deduped`, so the buckets sum to `requests`.
  for (Group& group : groups) {
    RequestOutcome& first = batch.outcomes[group.indices.front()];
    if (!first.fromCache) store(group.identity, first, traceOf(group.indices.front()));
    if (!first.ok) {
      batch.stats.failed += group.indices.size();
    } else if (first.fromCache) {
      batch.stats.cacheHits += 1;
    } else {
      batch.stats.addSolve(first.result.solvers);
    }
    for (std::size_t d = 1; d < group.indices.size(); ++d) {
      RequestOutcome& copy = batch.outcomes[group.indices[d]];
      copy = first;
      copy.deduped = true;
      countOutcome(copy);
      if (first.ok) batch.stats.deduped += 1;
    }
  }

  batch.stats.wallSeconds =
      std::chrono::duration<double>(Clock::now() - start).count();
  if (batch.stats.wallSeconds > 0) {
    batch.stats.requestsPerSecond =
        static_cast<double>(batch.stats.requests) / batch.stats.wallSeconds;
  }
  return batch;
}

std::string describeOutcome(const RequestOutcome& outcome) {
  std::ostringstream os;
  if (!outcome.ok) {
    os << "error: " << outcome.error << '\n';
    return std::move(os).str();
  }
  const PortfolioResult& r = outcome.result;
  os << "front:" << r.front.size() << " exact:" << (r.exactUsed ? 1 : 0)
     << " exhausted:" << (r.budgetExhausted ? 1 : 0) << '\n';
  for (const core::ParetoPoint& p : r.front) {
    os << renderRealHex(p.period) << ' ' << renderRealHex(p.latency);
    if (p.mapping) os << ' ' << p.mapping->describe();
    os << '\n';
  }
  for (const SolverContribution& c : r.solvers) {
    os << c.solver << ':' << c.points << (c.completed ? "" : "!");
    // Drop-policy skips are part of the deterministic result, so they
    // belong in the canonical rendering too.
    if (c.skipped > 0) os << '~' << c.skipped;
    os << '\n';
  }
  return std::move(os).str();
}

}  // namespace pipesched::service
