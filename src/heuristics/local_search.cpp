#include "pipesched/heuristics/local_search.hpp"

#include <optional>

#include "local_search_score.hpp"
#include "pipesched/core/delta_evaluation.hpp"

namespace pipesched::heuristics {

// Candidates are scored through the incremental kernel — peek(), no state
// change, O(touched-intervals) per candidate, no allocation. The
// used-processor bitmap lives in the workspace and is maintained
// incrementally across accepted moves (no per-round rebuild).
LocalSearchResult localSearch(const Evaluator& eval, const IntervalMapping& seed,
                              Objective objective, Real threshold,
                              const LocalSearchOptions& options) {
  using core::Move;
  using detail::better;
  using detail::Score;
  using detail::scoreOf;
  const std::size_t n = eval.pipeline().stageCount();
  const std::size_t p = eval.platform().processorCount();
  seed.validate(n, p);

  core::EvalWorkspace workspace;
  workspace.reserve(p, p);
  core::DeltaEvaluator delta(eval, workspace);
  delta.load(seed);

  Metrics currentMetrics = delta.metrics();
  Score currentScore = scoreOf(currentMetrics, objective, threshold);

  LocalSearchResult result;
  for (std::size_t round = 0; round < options.maxRounds; ++round) {
    Move bestMove;
    Metrics bestMetrics;
    Score bestScore = currentScore;
    bool improved = false;

    // peek() refuses exactly the moves apply() would (too-short intervals,
    // used processors), so the enumeration below stays a plain loop nest
    // over every move shape, in the copy-edit-rebuild reference's order.
    const auto consider = [&](const Move& move) {
      const std::optional<Metrics> peeked = delta.peek(move);
      if (!peeked) return;
      const Score s = scoreOf(*peeked, objective, threshold);
      if (better(s, bestScore)) {
        bestScore = s;
        bestMetrics = *peeked;
        bestMove = move;
        improved = true;
      }
    };

    const std::size_t m = delta.intervalCount();

    // Move class 1: shift the cut between intervals j and j+1 by one stage.
    for (std::size_t j = 0; j + 1 < m; ++j) {
      consider(Move::shiftLeft(j));   // give left's last stage to right
      consider(Move::shiftRight(j));  // take right's first stage into left
    }

    // Move class 2: swap the processors of intervals j and k.
    for (std::size_t j = 0; j < m; ++j) {
      for (std::size_t k = j + 1; k < m; ++k) consider(Move::swapProcessors(j, k));
    }

    // Move class 3: reassign interval j to an unused processor.
    for (std::size_t j = 0; j < m; ++j) {
      for (std::size_t u = 0; u < p; ++u) consider(Move::reassign(j, u));
    }

    // Move class 4: merge adjacent intervals onto either processor.
    if (options.mergeMoves) {
      for (std::size_t j = 0; j + 1 < m; ++j) {
        consider(Move::merge(j, /*keepLeft=*/true));
        consider(Move::merge(j, /*keepLeft=*/false));
      }
    }

    // Move class 5: split interval j at stage q, tail to an unused processor.
    if (options.splitMoves && m < p) {
      for (std::size_t j = 0; j < m; ++j) {
        const core::Interval iv = delta.assignment(j).interval;
        for (std::size_t q = iv.first; q < iv.last; ++q) {
          for (std::size_t u = 0; u < p; ++u) consider(Move::split(j, q, u));
        }
      }
    }

    if (!improved) break;
    delta.apply(bestMove);
    delta.commit();
    currentMetrics = bestMetrics;
    currentScore = bestScore;
    ++result.roundsAccepted;
  }

  result.mapping = delta.mapping();
  result.metrics = currentMetrics;
  result.feasible = currentScore.feasible;
  core::recordDeltaKernelStats(delta.stats());
  return result;
}

Result refineWithLocalSearch(const Evaluator& eval, const MappingHeuristic& heuristic,
                             Real threshold, const LocalSearchOptions& options) {
  const Result seeded = heuristic.run(eval, threshold);
  const LocalSearchResult refined =
      localSearch(eval, seeded.mapping, heuristic.objective(), threshold, options);
  Result out;
  out.mapping = refined.mapping;
  out.metrics = refined.metrics;
  out.splits = seeded.splits;
  out.success = refined.feasible;
  return out;
}

}  // namespace pipesched::heuristics
