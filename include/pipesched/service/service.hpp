// The portfolio scheduling service: the seam between the per-instance
// solvers and a deployable, traffic-serving scheduler.
//
//   SchedulingService service(config);
//   BatchResult out = service.solveBatch(requests);
//
// Every request, whichever entry point takes it, goes through one lifecycle:
// cache lookup, then on a miss a portfolio run on the calling thread
// (members in fixed slot order), store, trace, count. solve() runs it for one
// request. solveBatch() groups identical requests by fingerprint, looks each
// *unique* request up on the calling thread, solves the unique misses on the
// calling thread plus the threads it starts for that call, stores the misses
// in input order, and fans each outcome out to its duplicate slots —
// byte-identical to solving each request serially, whatever the thread
// count. The service owns no thread between calls.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "pipesched/obs/trace.hpp"
#include "pipesched/service/fingerprint.hpp"
#include "pipesched/service/portfolio.hpp"
#include "pipesched/service/request.hpp"
#include "pipesched/service/result_cache.hpp"

namespace pipesched::service {

struct ServiceConfig {
  /// Threads solving solveBatch's unique misses: the calling thread plus
  /// threads − 1 started per call; 0 and 1 solve on the caller (the serial
  /// reference mode). solve() always runs on its caller. A
  /// stream::AsyncScheduler wrapping this config starts `threads` workers
  /// instead, and 0 there means inline mode (submit() solves in place).
  std::size_t threads = 0;

  /// Result-cache entries; 0 disables caching.
  std::size_t cacheCapacity = 1024;

  /// Cross-request sub-result sharing: up to this many per-threshold work
  /// units and warm-start seeds (much smaller than whole results) memoized
  /// under the sweep-independent instance identity, so a new sweep over a
  /// seen instance only solves the thresholds it has not met. 0 turns
  /// sharing off. Fronts are byte-identical with sharing on or off (see the
  /// determinism guarantee in portfolio.hpp; like every reproducibility
  /// property here it presumes no wall-clock budget) — only the work
  /// changes.
  std::size_t subCacheCapacity = 32768;

  PortfolioConfig portfolio{};
};

/// Per-member contribution totals over the fresh solves of one batch (cache
/// hits and dedupe copies excluded — they repeat a prior solve's numbers).
/// Rows appear in first-seen member order, which is deterministic: outcomes
/// are aggregated in input order and members race in fixed catalog order.
struct MemberBatchStats {
  std::string solver;         ///< SolverContribution::solver
  std::uint64_t runs = 0;     ///< fresh solves this member took part in
  std::uint64_t points = 0;   ///< feasible points produced before merging
  std::uint64_t novel = 0;    ///< points that joined the member's own front
  std::uint64_t merged = 0;   ///< merged-front points credited to the member
  std::uint64_t skipped = 0;  ///< work units skipped by budget-aware dropping
  std::uint64_t dropped = 0;  ///< runs on which the drop policy fired
  std::uint64_t reused = 0;   ///< whole units served from the sub-result cache
  std::uint64_t seeded = 0;   ///< units warm-started from cached seed payloads

  /// Folds one solve's contribution into this row (counts one run).
  void add(const SolverContribution& c) {
    merge(MemberBatchStats{c.solver, 1, c.points, c.novel, c.merged, c.skipped,
                           c.dropped ? 1u : 0u, c.reused, c.seeded});
  }

  /// Folds another row for the same member into this one.
  void merge(const MemberBatchStats& other) {
    runs += other.runs;
    points += other.points;
    novel += other.novel;
    merged += other.merged;
    skipped += other.skipped;
    dropped += other.dropped;
    reused += other.reused;
    seeded += other.seeded;
  }
};

/// Aggregate accounting of one solveBatch() call. Every request slot lands
/// in exactly one of the four buckets below, so
/// solved + cacheHits + deduped + failed == requests.
struct BatchStats {
  std::size_t requests = 0;
  std::size_t solved = 0;      ///< portfolio ran and succeeded (unique misses)
  std::size_t failed = 0;      ///< outcomes with ok == false (duplicates included)
  std::size_t cacheHits = 0;   ///< served straight from the cache
  std::size_t deduped = 0;     ///< shared an identical in-batch request's ok solve
  double wallSeconds = 0;
  double requestsPerSecond = 0;
  /// Cross-request work sharing over the fresh solves: sub-result cache hits
  /// (whole units + warm-start seeds) and the whole-unit subset. How much is
  /// shared depends on cache state and, with threads > 1, timing — the
  /// *results* never do.
  std::uint64_t subHits = 0;
  std::uint64_t subUnitsReused = 0;
  std::vector<MemberBatchStats> members;  ///< per-member totals (fresh solves)

  /// Folds one fresh solve: counts it solved, adds each member's
  /// contribution to its row (first-seen order) and the sub-result hits.
  void addSolve(const std::vector<SolverContribution>& solvers);

  /// Folds another call's totals into these (`batch --repeat`); member rows
  /// merge by solver name, new ones append in first-seen order.
  void merge(const BatchStats& other);
};

struct BatchResult {
  std::vector<RequestOutcome> outcomes;  ///< same order as the input requests
  BatchStats stats;
};

class SchedulingService {
 public:
  explicit SchedulingService(ServiceConfig config = {});

  [[nodiscard]] const ServiceConfig& config() const noexcept { return config_; }

  /// Solves one request: cache lookup, then on a miss a portfolio run on the
  /// calling thread. Never throws on solver failure — the outcome carries
  /// the error text.
  [[nodiscard]] RequestOutcome solve(const Request& request);

  /// As above, with the caller's precomputed identity (must be
  /// requestIdentity(request)) — spares the hot async path a second
  /// canonicalization walk per request.
  [[nodiscard]] RequestOutcome solve(const Request& request, const RequestIdentity& identity);

  /// As above, continuing a caller-assembled per-request trace (the stream
  /// worker pre-fills parse/queue-wait/fingerprint stages). The service adds
  /// its own stages, folds its wall time into `trace->totalSeconds`, and
  /// attaches the finished trace to the outcome. `trace` may be null.
  [[nodiscard]] RequestOutcome solve(const Request& request, const RequestIdentity& identity,
                                     obs::RequestTrace* trace);

  /// Batch entry point (see file comment for the parallelism/determinism
  /// contract). Output ordering matches `requests`.
  [[nodiscard]] BatchResult solveBatch(const std::vector<Request>& requests);

  [[nodiscard]] CacheStats cacheStats() const { return cache_.stats(); }

  /// Counters of the instance-keyed sub-result cache (cross-request work
  /// sharing); all zero when ServiceConfig::subCacheCapacity is 0.
  [[nodiscard]] CacheStats subCacheStats() const { return subCache_.stats(); }

 private:
  /// The steps of the one request lifecycle, shared by every entry point:
  /// the cache lookup (a hit comes back counted, with `trace` attached; its
  /// span starts at `boundary` unless that is the epoch, and leaves its stop
  /// time there); on a miss the portfolio run (its stages traced); then the
  /// store, which caches a complete result, attaches the trace and counts
  /// the outcome. run() chains the three for one request.
  [[nodiscard]] RequestOutcome run(
      const Request& request, const RequestIdentity& identity,
      std::shared_ptr<obs::RequestTrace> trace,
      obs::TraceClock::time_point boundary = obs::TraceClock::time_point{});
  [[nodiscard]] std::optional<RequestOutcome> lookup(const RequestIdentity& identity,
                                                     std::shared_ptr<obs::RequestTrace> trace,
                                                     obs::TraceClock::time_point& boundary);
  [[nodiscard]] RequestOutcome solveMiss(const Request& request, const RequestIdentity& identity,
                                         obs::RequestTrace* trace);
  void store(const RequestIdentity& identity, RequestOutcome& outcome,
             std::shared_ptr<obs::RequestTrace> trace);

  ServiceConfig config_;
  ResultCache cache_;
  SubResultCache subCache_;
};

/// Canonical text rendering of an outcome (hexfloat metrics + mappings) —
/// the form the byte-identity tests and the CLI's JSON diffing rely on.
[[nodiscard]] std::string describeOutcome(const RequestOutcome& outcome);

}  // namespace pipesched::service
