// Simulated annealing over interval mappings — a randomized global-search
// baseline used by the ablation benches to estimate how much headroom the
// paper's deterministic heuristics leave on the table.
//
// Neighborhood: the same five move classes as local_search.hpp, sampled
// uniformly. Energy: the optimized criterion plus a penalty proportional to
// the constraint violation, so infeasible states are passable but repelling.
// Fully deterministic for a given (instance, options.seed). Proposals are
// scored by core::DeltaEvaluator::peek; the copy-edit-rebuild reference
// (oracles::annealRebuild, test- and bench-only) draws the same random
// sequence and must return a bit-identical result.
#pragma once

#include "pipesched/heuristics/heuristics.hpp"

namespace pipesched::heuristics {

struct AnnealingOptions {
  std::uint64_t seed = 1;

  /// Total proposed moves. The temperature decays geometrically from
  /// initialTemperature to finalTemperature across this budget.
  std::size_t moves = 20'000;

  /// Initial temperature as a fraction of the seed solution's energy; the
  /// absolute temperature adapts to the instance's scale.
  Real initialTemperatureFraction = 0.25;

  /// Final temperature as a fraction of the initial temperature.
  Real finalTemperatureFraction = 1e-4;

  /// Constraint-violation penalty weight, also relative to the seed energy.
  Real penaltyWeight = 10;
};

struct AnnealingResult {
  IntervalMapping mapping;  ///< best feasible state seen (or best overall)
  Metrics metrics;
  bool feasible = false;
  std::size_t accepted = 0;  ///< accepted moves (diagnostics)
};

/// Anneals from `seed` (must be valid). Returns the best feasible mapping
/// encountered, falling back to the lowest-energy infeasible one when the
/// threshold is unreachable.
[[nodiscard]] AnnealingResult anneal(const Evaluator& eval, const IntervalMapping& seedMapping,
                                     Objective objective, Real threshold,
                                     const AnnealingOptions& options = {});

}  // namespace pipesched::heuristics
