#include "pipesched/heuristics/annealing.hpp"

#include <cmath>
#include <optional>
#include <utility>
#include <vector>

#include "annealing_schedule.hpp"
#include "pipesched/core/delta_evaluation.hpp"
#include "pipesched/workload/rng.hpp"

namespace pipesched::heuristics {

namespace {

using workload::Rng;

// proposeMove() consumes the SAME random sequence as the copy-edit-rebuild
// reference (oracles::annealRebuild): guard order and draw order are in
// lockstep, so both walk identical trajectories (the equivalence tests pin
// this) while this one scores moves in place through the kernel. Its guards
// are exactly the kernel's, so every proposed move is applicable.

std::optional<core::Move> proposeMove(const core::DeltaEvaluator& delta, std::size_t p,
                                      std::vector<std::size_t>& unusedScratch, Rng& rng) {
  using core::Move;
  const std::size_t m = delta.intervalCount();
  // Only the reassign and split cases read the unused-processor list; build
  // it lazily there (it consumes no draws, so the random sequence stays in
  // lockstep with the reference, which builds it unconditionally).
  const auto refillUnused = [&] {
    unusedScratch.clear();
    for (std::size_t u = 0; u < p; ++u) {
      if (!delta.processorUsed(u)) unusedScratch.push_back(u);
    }
  };

  switch (rng.uniformInt(0, 4)) {
    case 0: {  // shift a cut
      if (m < 2) return std::nullopt;
      const std::size_t j = static_cast<std::size_t>(rng.uniformInt(0, static_cast<std::int64_t>(m) - 2));
      const bool leftGives = rng.uniformInt(0, 1) == 0;
      if (leftGives) {
        if (delta.assignment(j).interval.length() < 2) return std::nullopt;
        return Move::shiftLeft(j);
      }
      if (delta.assignment(j + 1).interval.length() < 2) return std::nullopt;
      return Move::shiftRight(j);
    }
    case 1: {  // swap two processors
      if (m < 2) return std::nullopt;
      const std::size_t j = static_cast<std::size_t>(rng.uniformInt(0, static_cast<std::int64_t>(m) - 1));
      const std::size_t k = static_cast<std::size_t>(rng.uniformInt(0, static_cast<std::int64_t>(m) - 1));
      if (j == k) return std::nullopt;
      return Move::swapProcessors(j, k);
    }
    case 2: {  // reassign to an unused processor
      refillUnused();
      if (unusedScratch.empty()) return std::nullopt;
      const std::size_t j = static_cast<std::size_t>(rng.uniformInt(0, static_cast<std::int64_t>(m) - 1));
      const std::size_t u = unusedScratch[static_cast<std::size_t>(
          rng.uniformInt(0, static_cast<std::int64_t>(unusedScratch.size()) - 1))];
      return Move::reassign(j, u);
    }
    case 3: {  // merge adjacent intervals
      if (m < 2) return std::nullopt;
      const std::size_t j = static_cast<std::size_t>(rng.uniformInt(0, static_cast<std::int64_t>(m) - 2));
      const bool keepLeft = rng.uniformInt(0, 1) == 0;
      return Move::merge(j, keepLeft);
    }
    default: {  // split an interval
      refillUnused();
      if (unusedScratch.empty()) return std::nullopt;
      const std::size_t j = static_cast<std::size_t>(rng.uniformInt(0, static_cast<std::int64_t>(m) - 1));
      const core::Interval iv = delta.assignment(j).interval;
      if (iv.length() < 2) return std::nullopt;
      const std::size_t q = static_cast<std::size_t>(
          rng.uniformInt(static_cast<std::int64_t>(iv.first), static_cast<std::int64_t>(iv.last) - 1));
      const std::size_t u = unusedScratch[static_cast<std::size_t>(
          rng.uniformInt(0, static_cast<std::int64_t>(unusedScratch.size()) - 1))];
      return Move::split(j, q, u);
    }
  }
}

}  // namespace

AnnealingResult anneal(const Evaluator& eval, const IntervalMapping& seedMapping,
                       Objective objective, Real threshold, const AnnealingOptions& options) {
  const std::size_t n = eval.pipeline().stageCount();
  const std::size_t p = eval.platform().processorCount();
  seedMapping.validate(n, p);
  if (options.moves == 0) throw ModelError("anneal: moves must be >= 1");

  core::EvalWorkspace workspace;
  workspace.reserve(p, p);
  core::DeltaEvaluator delta(eval, workspace);
  delta.load(seedMapping);

  Metrics currentMetrics = delta.metrics();
  const detail::Schedule schedule(objective, threshold, currentMetrics, options);
  const detail::EnergyModel& model = schedule.model;
  Real currentEnergy = model.energy(currentMetrics);

  // The best state is tracked as a raw parts copy: the buffer's capacity is
  // reused across improvements, so the steady state allocates nothing.
  std::vector<core::Assignment> bestParts = delta.assignments();
  AnnealingResult best;
  best.metrics = currentMetrics;
  best.feasible = model.feasible(currentMetrics);
  Real bestEnergy = currentEnergy;

  std::vector<std::size_t> unusedScratch;
  unusedScratch.reserve(p);

  Rng rng(options.seed);
  Real temperature = schedule.t0;
  for (std::size_t step = 0; step < options.moves; ++step, temperature *= schedule.decay) {
    const std::optional<core::Move> move = proposeMove(delta, p, unusedScratch, rng);
    if (!move) continue;
    // Scored by peek() without touching the scratch state; only an accepted
    // move is applied.
    const std::optional<Metrics> peeked = delta.peek(*move);
    if (!peeked) continue;
    const Metrics& m = *peeked;
    const Real e = model.energy(m);
    const Real diff = e - currentEnergy;
    if (diff <= 0 || rng.nextReal() < std::exp(-diff / temperature)) {
      delta.apply(*move);
      delta.commit();
      currentMetrics = m;
      currentEnergy = e;
      ++best.accepted;
      const bool feas = model.feasible(m);
      // Track the best state: a feasible one always beats an infeasible one;
      // otherwise compare energies.
      if ((feas && !best.feasible) || (feas == best.feasible && e < bestEnergy)) {
        bestParts.assign(delta.assignments().begin(), delta.assignments().end());
        best.metrics = m;
        best.feasible = feas;
        bestEnergy = e;
      }
    }
  }
  best.mapping = IntervalMapping::fromValidated(std::move(bestParts));
  core::recordDeltaKernelStats(delta.stats());
  return best;
}

}  // namespace pipesched::heuristics
