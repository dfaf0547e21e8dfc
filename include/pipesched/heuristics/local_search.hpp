// Steepest-descent local search over interval mappings — a refinement pass
// and an independent baseline for the paper's splitting heuristics.
//
// The neighborhood contains every mapping reachable from the current one by:
//   * shifting the cut between two adjacent intervals by one stage;
//   * swapping the processors of two intervals;
//   * reassigning one interval to an unused processor;
//   * merging two adjacent intervals onto either of their processors;
//   * splitting one interval in two, the new part on an unused processor.
//
// Unlike the paper's engines, local search is *seeded* (start from any valid
// mapping) and can move cuts back — it explores mappings the greedy splitting
// loop can never reach. It works unchanged on fully-heterogeneous platforms:
// every candidate is scored by core::DeltaEvaluator::peek, bit-identical to
// Evaluator::evaluate on the edited mapping. The copy-edit-rebuild reference
// that pins this (oracles::localSearchRebuild) lives in the test- and
// bench-only pipesched_oracles target.
#pragma once

#include "pipesched/heuristics/registry.hpp"

namespace pipesched::heuristics {

struct LocalSearchOptions {
  /// Steepest-descent rounds (each round scans the whole neighborhood).
  std::size_t maxRounds = 10'000;

  /// Include interval-splitting moves (the largest move class, O(n·p)).
  bool splitMoves = true;

  /// Include merge moves (may strand processors but shortens latency).
  bool mergeMoves = true;
};

struct LocalSearchResult {
  IntervalMapping mapping;
  Metrics metrics;
  std::size_t roundsAccepted = 0;  ///< strictly-improving rounds taken
  bool feasible = false;           ///< constrained criterion meets the threshold
};

/// Improves `seed` for `objective` under `threshold` until no neighbor is
/// strictly better. The comparison is lexicographic: feasibility first, then
/// the optimized criterion, then the constrained one. Throws MappingError if
/// the seed is invalid for the evaluator's instance.
[[nodiscard]] LocalSearchResult localSearch(const Evaluator& eval, const IntervalMapping& seed,
                                            Objective objective, Real threshold,
                                            const LocalSearchOptions& options = {});

/// Convenience: runs `heuristic` then polishes its mapping with localSearch.
/// The returned Result keeps the heuristic's split count and reports success
/// for the *refined* mapping.
[[nodiscard]] Result refineWithLocalSearch(const Evaluator& eval,
                                           const MappingHeuristic& heuristic, Real threshold,
                                           const LocalSearchOptions& options = {});

}  // namespace pipesched::heuristics
