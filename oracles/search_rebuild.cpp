#include "pipesched/oracles/search_rebuild.hpp"

#include <cmath>
#include <optional>
#include <utility>
#include <vector>

#include "heuristics/annealing_schedule.hpp"
#include "heuristics/local_search_score.hpp"
#include "pipesched/workload/rng.hpp"

namespace pipesched::oracles {

using core::Evaluator;
using core::IntervalMapping;
using core::Metrics;
using heuristics::AnnealingOptions;
using heuristics::AnnealingResult;
using heuristics::LocalSearchOptions;
using heuristics::LocalSearchResult;
using heuristics::Objective;
using heuristics::detail::better;
using heuristics::detail::EnergyModel;
using heuristics::detail::Schedule;
using heuristics::detail::Score;
using heuristics::detail::scoreOf;
using workload::Rng;

namespace {

// ---------------------------------------------------------------------------
// localSearch: the historical copy-edit-rebuild + full-evaluate pattern.
// Candidate enumeration order must stay in lockstep with
// heuristics::localSearch — the equivalence tests compare the two bit for bit.

/// Bundles the evaluation context shared by the move generators.
struct SearchContext {
  const core::Evaluator& eval;
  Objective objective;
  Real threshold;

  Score score(const IntervalMapping& mapping, Metrics* metricsOut = nullptr) const {
    const Metrics m = eval.evaluate(mapping);
    if (metricsOut != nullptr) *metricsOut = m;
    return scoreOf(m, objective, threshold);
  }
};

std::vector<bool> usedProcessors(const IntervalMapping& mapping, std::size_t p) {
  std::vector<bool> used(p, false);
  for (const core::Assignment& a : mapping.assignments()) used[a.processor] = true;
  return used;
}

/// Applies `edit` to a copy of `mapping`'s assignment list and rebuilds.
template <typename Edit>
IntervalMapping edited(const IntervalMapping& mapping, Edit&& edit) {
  std::vector<core::Assignment> parts = mapping.assignments();
  edit(parts);
  return IntervalMapping(std::move(parts));
}

// ---------------------------------------------------------------------------
// anneal: the historical implementation. Draw order must stay in lockstep
// with heuristics::anneal's proposeMove().

/// Proposes one random neighbor, or nullopt when the sampled move does not
/// apply to the current state (caller just samples again).
std::optional<IntervalMapping> propose(const IntervalMapping& current, std::size_t p,
                                       Rng& rng) {
  const std::size_t m = current.intervalCount();
  std::vector<core::Assignment> parts = current.assignments();

  std::vector<bool> used(p, false);
  for (const core::Assignment& a : parts) used[a.processor] = true;
  std::vector<std::size_t> unused;
  for (std::size_t u = 0; u < p; ++u) {
    if (!used[u]) unused.push_back(u);
  }

  switch (rng.uniformInt(0, 4)) {
    case 0: {  // shift a cut
      if (m < 2) return std::nullopt;
      const std::size_t j = static_cast<std::size_t>(rng.uniformInt(0, static_cast<std::int64_t>(m) - 2));
      const bool leftGives = rng.uniformInt(0, 1) == 0;
      if (leftGives) {
        if (parts[j].interval.length() < 2) return std::nullopt;
        --parts[j].interval.last;
        --parts[j + 1].interval.first;
      } else {
        if (parts[j + 1].interval.length() < 2) return std::nullopt;
        ++parts[j].interval.last;
        ++parts[j + 1].interval.first;
      }
      break;
    }
    case 1: {  // swap two processors
      if (m < 2) return std::nullopt;
      const std::size_t j = static_cast<std::size_t>(rng.uniformInt(0, static_cast<std::int64_t>(m) - 1));
      const std::size_t k = static_cast<std::size_t>(rng.uniformInt(0, static_cast<std::int64_t>(m) - 1));
      if (j == k) return std::nullopt;
      std::swap(parts[j].processor, parts[k].processor);
      break;
    }
    case 2: {  // reassign to an unused processor
      if (unused.empty()) return std::nullopt;
      const std::size_t j = static_cast<std::size_t>(rng.uniformInt(0, static_cast<std::int64_t>(m) - 1));
      const std::size_t u =
          unused[static_cast<std::size_t>(rng.uniformInt(0, static_cast<std::int64_t>(unused.size()) - 1))];
      parts[j].processor = u;
      break;
    }
    case 3: {  // merge adjacent intervals
      if (m < 2) return std::nullopt;
      const std::size_t j = static_cast<std::size_t>(rng.uniformInt(0, static_cast<std::int64_t>(m) - 2));
      const bool keepLeft = rng.uniformInt(0, 1) == 0;
      parts[j].interval.last = parts[j + 1].interval.last;
      if (!keepLeft) parts[j].processor = parts[j + 1].processor;
      parts.erase(parts.begin() + static_cast<std::ptrdiff_t>(j) + 1);
      break;
    }
    default: {  // split an interval
      if (unused.empty()) return std::nullopt;
      const std::size_t j = static_cast<std::size_t>(rng.uniformInt(0, static_cast<std::int64_t>(m) - 1));
      const core::Interval iv = parts[j].interval;
      if (iv.length() < 2) return std::nullopt;
      const std::size_t q = static_cast<std::size_t>(
          rng.uniformInt(static_cast<std::int64_t>(iv.first), static_cast<std::int64_t>(iv.last) - 1));
      const std::size_t u =
          unused[static_cast<std::size_t>(rng.uniformInt(0, static_cast<std::int64_t>(unused.size()) - 1))];
      core::Assignment tail;
      tail.interval = {q + 1, iv.last};
      tail.processor = u;
      parts[j].interval.last = q;
      parts.insert(parts.begin() + static_cast<std::ptrdiff_t>(j) + 1, tail);
      break;
    }
  }
  return IntervalMapping(std::move(parts));
}

}  // namespace

LocalSearchResult localSearchRebuild(const Evaluator& eval, const IntervalMapping& seed,
                                     Objective objective, Real threshold,
                                     const LocalSearchOptions& options) {
  const std::size_t n = eval.pipeline().stageCount();
  const std::size_t p = eval.platform().processorCount();
  seed.validate(n, p);
  const SearchContext ctx{eval, objective, threshold};

  IntervalMapping current = seed;
  Metrics currentMetrics;
  Score currentScore = ctx.score(current, &currentMetrics);

  LocalSearchResult result;
  for (std::size_t round = 0; round < options.maxRounds; ++round) {
    IntervalMapping bestNeighbor;
    Metrics bestMetrics;
    Score bestScore = currentScore;
    bool improved = false;

    const auto consider = [&](IntervalMapping neighbor) {
      Metrics m;
      const Score s = ctx.score(neighbor, &m);
      if (better(s, bestScore)) {
        bestScore = s;
        bestMetrics = m;
        bestNeighbor = std::move(neighbor);
        improved = true;
      }
    };

    const std::size_t m = current.intervalCount();
    const std::vector<bool> used = usedProcessors(current, p);

    // Move class 1: shift the cut between intervals j and j+1 by one stage.
    for (std::size_t j = 0; j + 1 < m; ++j) {
      const core::Interval left = current.interval(j);
      const core::Interval right = current.interval(j + 1);
      if (left.length() > 1) {  // give left's last stage to right
        consider(edited(current, [&](auto& parts) {
          --parts[j].interval.last;
          --parts[j + 1].interval.first;
        }));
      }
      if (right.length() > 1) {  // take right's first stage into left
        consider(edited(current, [&](auto& parts) {
          ++parts[j].interval.last;
          ++parts[j + 1].interval.first;
        }));
      }
    }

    // Move class 2: swap the processors of intervals j and k.
    for (std::size_t j = 0; j < m; ++j) {
      for (std::size_t k = j + 1; k < m; ++k) {
        consider(edited(current, [&](auto& parts) {
          std::swap(parts[j].processor, parts[k].processor);
        }));
      }
    }

    // Move class 3: reassign interval j to an unused processor.
    for (std::size_t j = 0; j < m; ++j) {
      for (std::size_t u = 0; u < p; ++u) {
        if (used[u]) continue;
        consider(edited(current, [&](auto& parts) { parts[j].processor = u; }));
      }
    }

    // Move class 4: merge adjacent intervals onto either processor.
    if (options.mergeMoves) {
      for (std::size_t j = 0; j + 1 < m; ++j) {
        for (const bool keepLeft : {true, false}) {
          consider(edited(current, [&](auto& parts) {
            parts[j].interval.last = parts[j + 1].interval.last;
            if (!keepLeft) parts[j].processor = parts[j + 1].processor;
            parts.erase(parts.begin() + static_cast<std::ptrdiff_t>(j) + 1);
          }));
        }
      }
    }

    // Move class 5: split interval j at stage q, tail to an unused processor.
    if (options.splitMoves && m < p) {
      for (std::size_t j = 0; j < m; ++j) {
        const core::Interval iv = current.interval(j);
        for (std::size_t q = iv.first; q < iv.last; ++q) {
          for (std::size_t u = 0; u < p; ++u) {
            if (used[u]) continue;
            consider(edited(current, [&](auto& parts) {
              core::Assignment tail;
              tail.interval = {q + 1, iv.last};
              tail.processor = u;
              parts[j].interval.last = q;
              parts.insert(parts.begin() + static_cast<std::ptrdiff_t>(j) + 1, tail);
            }));
          }
        }
      }
    }

    if (!improved) break;
    current = std::move(bestNeighbor);
    currentMetrics = bestMetrics;
    currentScore = bestScore;
    ++result.roundsAccepted;
  }

  result.mapping = std::move(current);
  result.metrics = currentMetrics;
  result.feasible = currentScore.feasible;
  return result;
}

AnnealingResult annealRebuild(const Evaluator& eval, const IntervalMapping& seedMapping,
                              Objective objective, Real threshold,
                              const AnnealingOptions& options) {
  const std::size_t n = eval.pipeline().stageCount();
  const std::size_t p = eval.platform().processorCount();
  seedMapping.validate(n, p);
  if (options.moves == 0) throw ModelError("anneal: moves must be >= 1");

  Metrics currentMetrics = eval.evaluate(seedMapping);
  const Schedule schedule(objective, threshold, currentMetrics, options);
  const EnergyModel& model = schedule.model;

  IntervalMapping current = seedMapping;
  Real currentEnergy = model.energy(currentMetrics);

  AnnealingResult best;
  best.mapping = current;
  best.metrics = currentMetrics;
  best.feasible = model.feasible(currentMetrics);
  Real bestEnergy = currentEnergy;

  Rng rng(options.seed);
  Real temperature = schedule.t0;
  for (std::size_t step = 0; step < options.moves; ++step, temperature *= schedule.decay) {
    std::optional<IntervalMapping> neighbor = propose(current, p, rng);
    if (!neighbor) continue;
    const Metrics m = eval.evaluate(*neighbor);
    const Real e = model.energy(m);
    const Real diff = e - currentEnergy;
    if (diff <= 0 || rng.nextReal() < std::exp(-diff / temperature)) {
      current = std::move(*neighbor);
      currentMetrics = m;
      currentEnergy = e;
      ++best.accepted;
      const bool feas = model.feasible(m);
      // Track the best state: a feasible one always beats an infeasible one;
      // otherwise compare energies.
      if ((feas && !best.feasible) ||
          (feas == best.feasible && e < bestEnergy)) {
        best.mapping = current;
        best.metrics = m;
        best.feasible = feas;
        bestEnergy = e;
      }
    }
  }
  return best;
}

}  // namespace pipesched::oracles
