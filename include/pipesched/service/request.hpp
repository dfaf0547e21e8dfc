// Request/response types of the portfolio scheduling service.
//
// A Request is a self-contained scheduling problem: the application, the
// platform, the communication model, and the threshold family the portfolio
// sweeps (grid resolution + range multiplier, as in exp::ParetoStudyConfig).
// Everything that influences the computed front is part of the request — and
// therefore part of its fingerprint — while presentation-only fields (the
// display name) are explicitly excluded.
#pragma once

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "pipesched/core/evaluation.hpp"
#include "pipesched/core/pareto.hpp"
#include "pipesched/core/pipeline.hpp"
#include "pipesched/core/platform.hpp"
#include "pipesched/obs/trace.hpp"

namespace pipesched::service {

/// Compact 128-bit request identity (two independently-seeded FNV streams
/// over the canonical request content — see fingerprint.hpp). Carried on
/// outcomes so reporting paths never re-canonicalize the instance.
struct Fingerprint {
  std::uint64_t hi = 0;
  std::uint64_t lo = 0;

  [[nodiscard]] bool operator==(const Fingerprint&) const noexcept = default;

  /// 32 lowercase hex digits.
  [[nodiscard]] std::string hex() const;
  /// The same 32 digits, written at `out` (no terminating NUL).
  void hex(char* out) const;
};

/// Threshold grid each portfolio member sweeps: `points` thresholds from the
/// solver's failure threshold (resp. latency optimum) up to that value times
/// `range`. Mirrors exp::ParetoStudyConfig so service fronts are comparable
/// with the per-instance study tool.
struct SweepSpec {
  std::size_t points = 24;
  Real range = 3;

  [[nodiscard]] bool operator==(const SweepSpec&) const noexcept = default;
};

/// Absolute per-request deadline, stamped when the request is admitted
/// (parse time for JSONL lines, submit time for in-memory requests).
/// Inactive by default; an inactive deadline never expires. QoS-only, like
/// `Request::name`: excluded from the fingerprint, so requests differing
/// only by deadline still dedupe, coalesce, and share cache entries.
struct Deadline {
  std::chrono::steady_clock::time_point at{};
  bool active = false;

  /// Deadline `ms` milliseconds from now; inactive when `ms <= 0`.
  [[nodiscard]] static Deadline in(double ms) {
    Deadline d;
    if (ms > 0) {
      d.active = true;
      d.at = std::chrono::steady_clock::now() +
             std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                 std::chrono::duration<double, std::milli>(ms));
    }
    return d;
  }

  [[nodiscard]] bool expired() const {
    return active && std::chrono::steady_clock::now() >= at;
  }

  /// Milliseconds until expiry (negative when past); a large sentinel when
  /// inactive so `remainingMs() > x` reads naturally for both cases.
  [[nodiscard]] double remainingMs() const {
    if (!active) return 1e18;
    return std::chrono::duration<double, std::milli>(
               at - std::chrono::steady_clock::now())
        .count();
  }

  /// The earlier of two deadlines (inactive ones never win).
  [[nodiscard]] static Deadline earlier(const Deadline& a, const Deadline& b) {
    if (!a.active) return b;
    if (!b.active) return a;
    return a.at <= b.at ? a : b;
  }
};

/// One scheduling problem submitted to the service.
struct Request {
  core::Pipeline pipeline;
  core::Platform platform;
  core::CommModel model = core::CommModel::kSequential;
  SweepSpec sweep;

  /// Display-only label (batch reports, logs). NOT part of the fingerprint:
  /// two requests differing only by name dedupe to one solve.
  std::string name;

  /// Seconds the source spent parsing this request's text form; 0 when the
  /// request was built in memory or observability is off. Display-only, like
  /// `name`: excluded from the fingerprint and every canonical rendering.
  double parseSeconds = 0;

  /// Absolute completion deadline (see Deadline). Inactive by default.
  /// QoS-only: excluded from the fingerprint and canonical renderings; an
  /// expired deadline turns the outcome into a flagged timeout or a
  /// `degraded` partial front, never a silent truncation.
  Deadline deadline{};

  /// 1-based line of the JSONL stream this request was parsed from (0 when
  /// it came from elsewhere). Display-only, like `name`: it lets an outcome
  /// line name its input line, whichever thread renders it.
  std::size_t sourceLine = 0;
};

/// What one portfolio member contributed to a solved request.
struct SolverContribution {
  std::string solver;        ///< "H1-SpMonoP".."H6-SpBiL", "ls:H1".."sa:H6",
                             ///< "c2c-dp", "c2c-ls" or "exact"
  std::size_t points = 0;    ///< feasible points produced before merging
  bool completed = false;    ///< false when the budget cut the sweep short
  std::size_t units = 0;     ///< work units the member wanted on this instance
  std::size_t novel = 0;     ///< points that joined the member's own running front
  std::size_t merged = 0;    ///< merged-front points credited to this member
                             ///< (first member in race order with the coordinates)
  std::size_t skipped = 0;   ///< units skipped by budget-aware dropping
  bool dropped = false;      ///< the drop policy fired on this member
  /// The member aborted on an internal error (thrown exception or an armed
  /// fault-injection site): its partial points still merge, the front is
  /// flagged degraded. Timing/fault provenance — excluded from
  /// describeOutcome and canonical JSON, like reused/wallSeconds.
  bool failed = false;
  /// Cross-request work sharing provenance (excluded from describeOutcome,
  /// like fromCache/deduped: how much work was *saved* depends on cache state
  /// and timing, while the resulting points are byte-identical either way).
  std::size_t reused = 0;    ///< whole units served from the sub-result cache
  std::size_t seeded = 0;    ///< units warm-started from a cached seed payload
                             ///< (base-heuristic mappings, feasibility ranges)
  /// Wall seconds this member's run took inside the race. Timing-only
  /// provenance (excluded from describeOutcome and canonical JSON, like
  /// reused/seeded): the points are identical whatever the clock said.
  double wallSeconds = 0;
};

/// The service's answer for one request: the merged non-dominated front over
/// every portfolio member, sorted by increasing period (core::paretoFront
/// invariant), with realizing mappings attached.
struct PortfolioResult {
  std::vector<core::ParetoPoint> front;
  std::vector<SolverContribution> solvers;  ///< fixed member race order (accepted members)
  bool exactUsed = false;        ///< the exact enumerator joined the race
  bool budgetExhausted = false;  ///< some member was cut short by the budget
  /// The front is partial for a *non-deterministic* reason: the request
  /// deadline cut members short or a member failed mid-run. Distinct from
  /// budgetExhausted (a deterministic config property): degraded results are
  /// never cached, and JSON emits `"degraded":true` only when set (so
  /// healthy outputs stay byte-identical). Excluded from describeOutcome,
  /// which only renders timing-independent content.
  bool degraded = false;
  /// Stage timings for this solve (timing-only, excluded from canonical
  /// renderings): the member race wall and the merge/attribution wall.
  double memberRaceSeconds = 0;
  double mergeSeconds = 0;
};

/// Batch outcome slot; `ok == false` carries the error text instead of a
/// result so one malformed request cannot sink the rest of the batch.
struct RequestOutcome {
  bool ok = false;
  PortfolioResult result;
  std::string error;
  bool fromCache = false;  ///< served from the result cache
  bool deduped = false;    ///< shared another identical request's solve
  /// The request's deadline expired before a result could be produced
  /// (queued past the deadline, or a coalesced owner finished too late).
  /// Always paired with ok == false and an explanatory error; JSON emits
  /// `"timed_out":true` only when set.
  bool timedOut = false;
  /// Identity of the request this outcome answers. Set by every service and
  /// stream solve path (failures included); excluded from describeOutcome,
  /// so the byte-identity contract is unaffected.
  Fingerprint fingerprint;
  /// Per-request latency breakdown, set only when obs::tracingEnabled() was
  /// on while this outcome was produced. Shared (not copied) by dedup and
  /// coalesce fan-out; excluded from describeOutcome and from JSON output
  /// unless the caller asked for traces.
  std::shared_ptr<const obs::RequestTrace> trace;
};

}  // namespace pipesched::service
