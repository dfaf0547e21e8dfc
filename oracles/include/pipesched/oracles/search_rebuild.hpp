// Copy-edit-rebuild twins of heuristics::localSearch and heuristics::anneal:
// every candidate is a copied assignment list, edited, rebuilt into an
// IntervalMapping and scored by a full Evaluator::evaluate. They enumerate
// (localSearch) or draw (anneal) candidates in the same order as the library's
// delta-kernel loops and rank them through the same private scoring code, so
// results must be bit-identical; the heuristics tests and bench/perf_eval
// hold the library to that. Test- and bench-only.
#pragma once

#include "pipesched/heuristics/annealing.hpp"
#include "pipesched/heuristics/local_search.hpp"

namespace pipesched::oracles {

/// Same contract as heuristics::localSearch.
[[nodiscard]] heuristics::LocalSearchResult localSearchRebuild(
    const core::Evaluator& eval, const core::IntervalMapping& seed,
    heuristics::Objective objective, Real threshold,
    const heuristics::LocalSearchOptions& options = {});

/// Same contract as heuristics::anneal.
[[nodiscard]] heuristics::AnnealingResult annealRebuild(
    const core::Evaluator& eval, const core::IntervalMapping& seedMapping,
    heuristics::Objective objective, Real threshold,
    const heuristics::AnnealingOptions& options = {});

}  // namespace pipesched::oracles
