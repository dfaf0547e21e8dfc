// Portfolio solver: race a configurable set of *members* over the request's
// threshold grid, then Pareto-merge their fronts (core::paretoFront).
//
// A PortfolioMember wraps any solver that can produce (threshold, value)
// front points. The built-in catalog covers
//   * the six registry heuristics H1..H6 (one member each, as in the paper);
//   * local-search and annealing *refiners* ("ls:HN" / "sa:HN"): at every
//     grid point they run the base heuristic, then polish its mapping with
//     heuristics::localSearch / heuristics::anneal under the same threshold —
//     they explore mappings the greedy splitting loop can never reach, and
//     never emit a point dominated by their seed's point at that threshold;
//   * the chains-to-chains solvers ("c2c", "c2c:ls") on instances they
//     accept (communication-homogeneous platforms): fixed-order DP over the
//     k fastest processors per work unit, resp. the order-refining local
//     search — every emitted point is a genuine mapping re-scored through
//     core::Evaluator, so the member stays sound even where the c2c cost
//     model ignores communication;
//   * the exact enumerator ("exact") when the instance is small.
//
// Determinism contract (tested by tests/service/test_portfolio_properties):
// the merged front is a pure function of the instance and the configuration.
// Members run one after another in fixed slot order, each writing into its
// own pre-assigned slot, and the merge concatenates slots in that order. All
// budgets are member-local — the work budget truncates every sweep at the
// same grid point, and the *drop policy* (see PortfolioConfig::dropAfter)
// decides from the member's own running front only. Only the optional
// wall-clock budget (off by default) trades determinism for latency bounds.
//
// Thread-safety audit (relied on by the cross-request parallelism of
// SchedulingService::solveBatch and the stream workers, which run many
// portfolios at once): the heuristics, the refiners and the c2c solvers are
// stateless free functions (annealing is deterministic from its explicit
// seed), member objects are created fresh per runPortfolio call, and
// Evaluator/Pipeline/Platform are immutable after construction — no shared
// mutable state anywhere on the solver path (verified over src/heuristics/,
// src/exact/ and src/c2c/) beyond the thread-safe sub-result cache.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "pipesched/heuristics/registry.hpp"
#include "pipesched/service/request.hpp"
#include "pipesched/service/result_cache.hpp"

namespace pipesched::service {

/// Work/time bounds on one portfolio run.
struct PortfolioBudget {
  /// Deterministic work bound: each member evaluates at most this many work
  /// units (grid points for the sweeping members, processor counts for the
  /// c2c ladder, one unit for the exact enumerator).
  std::uint64_t maxRunsPerSolver = UINT64_MAX;

  /// Exact-enumerator work bound (complete mappings visited) before it gives
  /// up and leaves the front to the heuristics.
  std::uint64_t exactMappingLimit = 2'000'000;

  /// Wall-clock bound in milliseconds; 0 = unlimited. Checked between work
  /// units. NOT deterministic — leave at 0 where reproducibility matters.
  double timeBudgetMs = 0;
};

struct PortfolioConfig {
  /// Enter the exact enumerator in the race when the instance is small
  /// enough (see exactEligible).
  bool useExact = true;

  /// Member selection, by catalog id ("H1".."H6", "ls:H1".."ls:H6",
  /// "sa:H1".."sa:H6", "c2c", "c2c:ls", "exact"). Empty = the default race
  /// (H1..H6 plus exact), byte-identical to the pre-registry portfolio.
  /// Resolved by makePortfolioMembers; an unknown id throws ModelError.
  std::vector<std::string> members;

  /// Budget-aware member dropping: skip a member's remaining work units once
  /// `dropAfter` consecutive units contributed no point that joined the
  /// member's *own* running front (member-local, hence deterministic under
  /// any worker count). 0 = never drop. Skipped units are reported in
  /// SolverContribution::skipped.
  std::size_t dropAfter = 0;

  /// Proposed moves per annealing-refiner run (one run per grid point —
  /// deliberately far below the ablation default of 20'000).
  std::size_t annealingMoves = 2'000;

  PortfolioBudget budget;
};

// ---------------------------------------------------------------------------
// Cross-request sub-result sharing.
//
// The sub-result cache memoizes the portfolio's *work units* under the
// sweep-independent instance identity (instanceFingerprint in fingerprint.hpp):
// a (member, threshold) solve is the same computation whichever sweep spec
// dispatched it, so a new sweep over a seen instance only solves the
// thresholds it has not met. Three payload kinds share one value type:
//   * unit outputs — the points a work unit emitted (whole-unit skip);
//   * seeds — the raw base-heuristic result at a threshold, which the ls/sa
//     refiners warm-start from instead of re-running the base heuristic;
//   * scalars — the member's grid anchor (failure threshold / latency
//     optimum), an instance property every sweep of the instance recomputes.
//
// Determinism guarantee (pinned by tests/service/test_subresult_share.cpp):
// every memoized payload is a pure function of (instance, share key) under a
// fixed PortfolioConfig, so sharing can only skip redundant work — fronts are
// byte-identical with sharing on or off, whatever the cross-request
// interleaving. The store must not
// be shared across services with different portfolio configs (the keys embed
// only the config knobs a unit's output depends on: annealing moves, the
// exact mapping limit). Scope: the guarantee presumes a deterministic run to
// begin with — a wall-clock budget (PortfolioBudget::timeBudgetMs > 0, off by
// default and already documented as non-reproducible) cuts sweeps by timing,
// which sharing changes.

/// One memoized work unit / warm-start payload.
struct SubResult {
  std::vector<core::ParetoPoint> points;  ///< the unit's emitted points

  /// Raw base-heuristic result at the unit's threshold (mapping valid even
  /// on failure — the annealing refiner anneals from failed seeds too).
  std::optional<heuristics::Result> seed;

  /// Scalar payload (grid anchor).
  std::optional<Real> scalar;
};

/// Instance-keyed store of SubResults (see result_cache.hpp for semantics).
using SubResultCache = ShardedLruStore<SubResult>;

/// Binds one runPortfolio call to the sub-result cache: the instance's
/// sweep-independent identity plus the store. Copy-cheap view; thread-safe
/// (the store shards its locks, the identity is immutable).
///
/// Entry identity is the 128-bit instance fingerprint (two independently
/// seeded streams — instanceFingerprint in fingerprint.hpp) plus the unit
/// key. Unlike the whole-result cache, the exact instance key is not
/// embedded in every entry key: with thousands of per-threshold units per
/// instance it would replicate kilobytes of instance bytes per entry
/// and re-hash them on every unit lookup. The cost is a ~2^-64-per-pair
/// aliasing chance on a fingerprint collision — accepted for this layer
/// (the exact-keyed whole-result cache still guards full requests).
class SubShare {
 public:
  SubShare(SubResultCache* cache, Fingerprint instanceFp)
      : cache_(cache), fp_(instanceFp), prefix_(fp_.hex() + '\x1f') {}

  [[nodiscard]] std::optional<SubResult> load(const std::string& unitKey) const {
    if (cache_ == nullptr) return std::nullopt;
    return cache_->get(fp_, prefix_ + unitKey);
  }

  void store(const std::string& unitKey, SubResult memo) const {
    if (cache_ != nullptr) cache_->put(fp_, prefix_ + unitKey, std::move(memo));
  }

 private:
  SubResultCache* cache_ = nullptr;
  Fingerprint fp_;
  std::string prefix_;  ///< fingerprint hex + unit separator, built once
};

/// One pluggable portfolio member. Implementations must be safe to run
/// concurrently with other portfolios (no shared mutable state); one member
/// instance is driven by exactly one runPortfolio call.
class PortfolioMember {
 public:
  /// Per-instance work session. units() work units are executed in order by
  /// the portfolio runner, which owns the budget / deadline / drop checks —
  /// and the sub-result lookup/publish — between units.
  class Run {
   public:
    virtual ~Run() = default;

    /// Number of work units this member wants on this instance.
    [[nodiscard]] virtual std::size_t units() const = 0;

    /// Share identity of unit i's output, stable across sweeps of the same
    /// instance and distinct across units ("" = this unit is not shareable).
    /// Must embed every config knob the unit's output depends on.
    [[nodiscard]] virtual std::string unitKey(std::size_t /*i*/) const { return {}; }

    /// Executes work unit i (< units()); returns the feasible points it
    /// produced (possibly none). Points must carry their realizing mapping.
    [[nodiscard]] virtual std::vector<core::ParetoPoint> unit(std::size_t i) = 0;

    /// Called right after a fresh unit(i), before the runner publishes its
    /// memo: attach the member's warm-start payload (e.g. the raw base
    /// heuristic result other members can seed from).
    virtual void attachSeed(std::size_t /*i*/, SubResult& /*memo*/) {}

    /// Work units this run warm-started from cached seed payloads (grid
    /// anchors, base-heuristic seeds) — reported as contribution.seeded.
    [[nodiscard]] virtual std::size_t seeded() const { return 0; }

    /// True when an internal limit (e.g. the exact mapping limit) truncated
    /// the member's own work; reported as contribution.completed == false.
    [[nodiscard]] virtual bool truncated() const { return false; }
  };

  virtual ~PortfolioMember() = default;

  /// Stable catalog id, e.g. "H1", "ls:H4", "c2c", "exact".
  [[nodiscard]] virtual std::string id() const = 0;

  /// Name reported in SolverContribution::solver (e.g. "H1-SpMonoP",
  /// "ls:H1", "c2c-dp", "exact").
  [[nodiscard]] virtual std::string solverName() const = 0;

  /// Whether the member can run on this instance under `config`.
  [[nodiscard]] virtual bool accepts(const core::Evaluator& eval,
                                     const PortfolioConfig& config) const = 0;

  /// Starts a work session on one instance. `share` (nullable) lets the run
  /// consume and publish warm-start payloads; the runner separately handles
  /// whole-unit memoization through unitKey(). (No default argument: on a
  /// virtual it would bind to the static type and overrides don't repeat it.)
  [[nodiscard]] virtual std::unique_ptr<Run> start(const core::Evaluator& eval,
                                                   const SweepSpec& sweep,
                                                   const PortfolioConfig& config,
                                                   const SubShare* share) const = 0;
};

/// The default race: {"H1".."H6", "exact"} — what an empty
/// PortfolioConfig::members resolves to.
[[nodiscard]] std::vector<std::string> defaultPortfolioMembers();

/// Every catalog id in race order (the CLI's `--portfolio-members all`).
[[nodiscard]] std::vector<std::string> allPortfolioMembers();

/// Instantiates config.members (the default set when empty), in the given
/// order. Throws ModelError on an unknown id.
[[nodiscard]] std::vector<std::unique_ptr<PortfolioMember>> makePortfolioMembers(
    const PortfolioConfig& config);

/// Runs the portfolio on one instance: every accepted member in slot order on
/// the calling thread, then the deterministic merge. Parallelism lives one
/// level up, across requests (solveBatch's threads, the stream workers). With
/// `share`, work units are memoized/reused through the sub-result cache (see
/// SubShare above — results are byte-identical with or without it). Throws
/// ModelError on an invalid sweep spec or an unknown member id.
///
/// `requestDeadline` (inactive by default) is the caller's absolute
/// completion deadline: the runner takes the earlier of it and the
/// config's wall-clock budget, drops not-yet-started members and cuts unit
/// loops as it nears, and flags the result `degraded` — a partial front is
/// returned promptly instead of hanging or silently truncating. A member
/// that throws (or hits an armed `member.<id>` fault site) is contained the
/// same way: its partial points merge, the result is flagged degraded.
[[nodiscard]] PortfolioResult runPortfolio(const core::Evaluator& eval, const SweepSpec& sweep,
                                           const PortfolioConfig& config = {},
                                           const SubShare* share = nullptr,
                                           const Deadline& requestDeadline = {});

/// True when `config` admits the exact enumerator on this instance size:
/// useExact, processors <= 6 and stages * processors <= 48.
[[nodiscard]] bool exactEligible(std::size_t stages, std::size_t processors,
                                 const PortfolioConfig& config);

}  // namespace pipesched::service
