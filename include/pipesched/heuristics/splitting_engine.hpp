// Generic interval-splitting engine (paper Section 4).
//
// Every heuristic in the paper follows the same skeleton:
//   * sort processors by non-increasing speed;
//   * start with every stage on the fastest processor (the Lemma-1 optimum);
//   * repeatedly pick the *used* processor with the largest cycle-time and
//     split its interval, handing stages to the fastest processors not yet
//     used, until the period target is reached or no admissible split exists.
//
// The heuristics differ along two axes, which are the engine's knobs:
//   * split arity — 2-way (Sp-*) or 3-way (3-Explo-*);
//   * selection rule — mono-criterion (minimize the max of the new
//     cycle-times) or bi-criteria (minimize max_i dLatency/dPeriod(i));
// plus the stopping side-constraints (period target, latency cap).
//
// Split candidates are scored in place by core::DeltaEvaluator::replaceInterval
// + undo; the kernel's randomized differential suite pins that to
// IntervalMapping::replaceInterval + Evaluator::evaluate bit for bit.
#pragma once

#include <optional>

#include "pipesched/core/evaluation.hpp"

namespace pipesched::heuristics {

using core::Evaluator;
using core::IntervalMapping;
using core::Metrics;

/// Candidate-selection rule.
enum class SelectionRule {
  kMonoMax,   ///< minimize max of the new cycle-times (H1/H2 style)
  kBiRatio,   ///< minimize max_i dLatency/dPeriod(i)   (H3/H4/H6 style)
};

/// How many pieces a split produces.
enum class SplitArity {
  kTwo,
  kThree,  ///< falls back to 2-way when the victim has < 3 stages or only
           ///< one unused processor remains
};

struct EngineConfig {
  SelectionRule rule = SelectionRule::kMonoMax;
  SplitArity arity = SplitArity::kTwo;

  /// Stop as soon as the period is <= this value. nullopt = run to
  /// exhaustion (used by the latency-constrained heuristics and by
  /// failure-threshold measurement).
  std::optional<Real> periodTarget;

  /// Candidates whose post-split latency exceeds this cap are inadmissible
  /// (the latency-constrained heuristics and the Sp-bi-P binary search).
  Real latencyCap = kInfinity;

  /// Hard safety cap on accepted splits (the theoretical max is n-1).
  std::size_t maxSplits = 1u << 20;
};

struct EngineResult {
  IntervalMapping mapping;
  Metrics metrics;
  std::size_t splits = 0;
  /// True when periodTarget was reached (always true in exhaustion mode).
  bool reachedTarget = false;
};

/// Runs the splitting loop on `eval`'s pipeline/platform. The initial mapping
/// is the optimal-latency single-interval solution.
[[nodiscard]] EngineResult runSplittingEngine(const Evaluator& eval, const EngineConfig& config);

}  // namespace pipesched::heuristics
