// Bi-criteria (period, latency) points and Pareto-front utilities.
//
// The paper's bi-criteria problem asks for the best latency under a period
// bound (or vice versa); sweeping the bound traces a front of non-dominated
// (period, latency) pairs. These helpers maintain such fronts for both the
// exact solvers and the heuristic sweeps.
#pragma once

#include <optional>
#include <vector>

#include "pipesched/core/mapping.hpp"
#include "pipesched/core/types.hpp"

namespace pipesched::core {

/// One bi-criteria outcome; the mapping that realized it is optional (kept by
/// the exact solvers, dropped by high-volume sweeps).
struct ParetoPoint {
  Real period = 0;
  Real latency = 0;
  std::optional<IntervalMapping> mapping;
};

/// True when `a` dominates `b`: no worse in both criteria, strictly better in
/// at least one (both criteria are minimized).
[[nodiscard]] bool dominates(const ParetoPoint& a, const ParetoPoint& b);

/// Filters a point set down to its non-dominated subset, sorted by increasing
/// period (hence decreasing latency). Duplicate-coordinate points collapse to
/// one representative.
[[nodiscard]] std::vector<ParetoPoint> paretoFront(std::vector<ParetoPoint> points);

/// Incrementally maintained Pareto front, used where candidate points arrive
/// one at a time (exhaustive enumeration, branch-and-bound).
class ParetoFrontBuilder {
 public:
  /// Offers a candidate; returns true when it joined the front (i.e. it was
  /// not dominated by an existing member).
  bool offer(ParetoPoint point);

  /// Finished front, sorted by increasing period.
  [[nodiscard]] std::vector<ParetoPoint> take();

  [[nodiscard]] std::size_t size() const noexcept { return points_.size(); }

 private:
  std::vector<ParetoPoint> points_;  // non-dominated, sorted by increasing period
};

}  // namespace pipesched::core
