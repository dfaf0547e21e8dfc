// Private to the library and pipesched_oracles: how localSearch ranks
// candidate mappings, shared with the copy-edit-rebuild reference
// (oracles::localSearchRebuild) so both rank by the same code.
#pragma once

#include "pipesched/heuristics/heuristics.hpp"

namespace pipesched::heuristics::detail {

/// Scores used to rank candidate mappings: feasibility, then the optimized
/// criterion, then the constrained criterion as tie-breaker.
struct Score {
  bool feasible = false;
  Real primary = kInfinity;    ///< the optimized criterion
  Real secondary = kInfinity;  ///< the constrained criterion
};

inline Score scoreOf(const Metrics& m, Objective objective, Real threshold) {
  Score s;
  if (objective == Objective::kMinLatencyForPeriod) {
    s.feasible = lessOrNearlyEqual(m.period, threshold);
    s.primary = m.latency;
    s.secondary = m.period;
  } else {
    s.feasible = lessOrNearlyEqual(m.latency, threshold);
    s.primary = m.period;
    s.secondary = m.latency;
  }
  return s;
}

/// Strictly-better-than comparison. Feasible beats infeasible; among equals,
/// an infeasible pair compares on the constraint violation (secondary) first
/// so the search walks toward feasibility before optimizing.
inline bool better(const Score& a, const Score& b) {
  if (a.feasible != b.feasible) return a.feasible;
  if (!a.feasible) {
    if (definitelyLess(a.secondary, b.secondary)) return true;
    if (definitelyLess(b.secondary, a.secondary)) return false;
    return definitelyLess(a.primary, b.primary);
  }
  if (definitelyLess(a.primary, b.primary)) return true;
  if (definitelyLess(b.primary, a.primary)) return false;
  return definitelyLess(a.secondary, b.secondary);
}

}  // namespace pipesched::heuristics::detail
