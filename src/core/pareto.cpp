#include "pipesched/core/pareto.hpp"

#include <algorithm>

namespace pipesched::core {

bool dominates(const ParetoPoint& a, const ParetoPoint& b) {
  const bool noWorse = a.period <= b.period + kTimeEps && a.latency <= b.latency + kTimeEps;
  const bool strictlyBetter =
      definitelyLess(a.period, b.period) || definitelyLess(a.latency, b.latency);
  return noWorse && strictlyBetter;
}

std::vector<ParetoPoint> paretoFront(std::vector<ParetoPoint> points) {
  ParetoFrontBuilder builder;
  for (ParetoPoint& p : points) builder.offer(std::move(p));
  return builder.take();
}

bool ParetoFrontBuilder::offer(ParetoPoint point) {
  for (const ParetoPoint& existing : points_) {
    if (dominates(existing, point)) return false;
    if (nearlyEqual(existing.period, point.period) &&
        nearlyEqual(existing.latency, point.latency)) {
      return false;  // duplicate coordinates: keep the first representative
    }
  }
  std::erase_if(points_, [&](const ParetoPoint& existing) { return dominates(point, existing); });
  // Insert in (period, latency) order; front points never tie on both.
  const auto at = std::upper_bound(
      points_.begin(), points_.end(), point, [](const ParetoPoint& a, const ParetoPoint& b) {
        return a.period < b.period || (a.period == b.period && a.latency < b.latency);
      });
  points_.insert(at, std::move(point));
  return true;
}

std::vector<ParetoPoint> ParetoFrontBuilder::take() { return std::move(points_); }

}  // namespace pipesched::core
