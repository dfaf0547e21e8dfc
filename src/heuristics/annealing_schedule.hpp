// Private to the library and pipesched_oracles: anneal's energy and cooling
// schedule, shared with the copy-edit-rebuild reference
// (oracles::annealRebuild) so both walk the same acceptance test.
#pragma once

#include <algorithm>
#include <cmath>

#include "pipesched/heuristics/annealing.hpp"

namespace pipesched::heuristics::detail {

struct EnergyModel {
  Objective objective;
  Real threshold;
  Real penalty;  ///< absolute penalty weight per unit of violation

  [[nodiscard]] Real energy(const Metrics& m) const {
    const Real primary =
        objective == Objective::kMinLatencyForPeriod ? m.latency : m.period;
    const Real constrained =
        objective == Objective::kMinLatencyForPeriod ? m.period : m.latency;
    return primary + penalty * std::max(Real(0), constrained - threshold);
  }

  [[nodiscard]] bool feasible(const Metrics& m) const {
    const Real constrained =
        objective == Objective::kMinLatencyForPeriod ? m.period : m.latency;
    return lessOrNearlyEqual(constrained, threshold);
  }
};

/// Shared annealing schedule derived from the seed metrics.
struct Schedule {
  EnergyModel model;
  Real t0;
  Real decay;

  Schedule(Objective objective, Real threshold, const Metrics& seedMetrics,
           const AnnealingOptions& options)
      : model{objective, threshold, Real(0)} {
    // Scale both the penalty and the temperature schedule to the seed energy
    // so the options are instance-size independent.
    const Real scale =
        std::max(Real(1), std::max(seedMetrics.period, seedMetrics.latency));
    model.penalty = options.penaltyWeight * scale;
    t0 = std::max(kTimeEps, options.initialTemperatureFraction * scale);
    const Real t1 = std::max(kTimeEps * kTimeEps, t0 * options.finalTemperatureFraction);
    decay = std::pow(t1 / t0,
                     Real(1) / static_cast<Real>(std::max<std::size_t>(1, options.moves - 1)));
  }
};

}  // namespace pipesched::heuristics::detail
