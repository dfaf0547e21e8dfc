// Local search: validity of every returned mapping, monotone improvement over
// the seed, feasibility walking, merge behaviour on comm-heavy instances,
// optimality on small instances, and operation on fully-heterogeneous
// platforms (which the paper's own heuristics do not support).
#include <gtest/gtest.h>

#include "pipesched/exact/exhaustive.hpp"
#include "pipesched/heuristics/local_search.hpp"
#include "pipesched/heuristics/registry.hpp"
#include "pipesched/oracles/search_rebuild.hpp"
#include "pipesched/workload/generator.hpp"

namespace pipesched::heuristics {
namespace {

using core::Evaluator;
using core::IntervalMapping;
using core::Pipeline;
using core::Platform;
using workload::ExperimentKind;
using workload::Rng;

TEST(LocalSearch, RejectsInvalidSeed) {
  const Pipeline pipe({1, 2}, {0, 0, 0});
  const Platform plat({1, 2}, 1);
  const Evaluator eval(pipe, plat);
  const auto bad = IntervalMapping::fromCuts(3, {0, 2}, {0, 1});  // 3 stages, pipe has 2
  EXPECT_THROW((void)localSearch(eval, bad, Objective::kMinPeriodForLatency, kInfinity),
               MappingError);
}

TEST(LocalSearch, FindsTheExactOptimumOnATinyInstance) {
  // Two heavy stages, free comms, two equal processors: the optimum period
  // splits them (period 5), while the Lemma-1 seed has period 10.
  const Pipeline pipe({5, 5}, {0, 0, 0});
  const Platform plat({1, 1}, 1);
  const Evaluator eval(pipe, plat);
  const auto seed = eval.optimalLatencyMapping();
  const auto r = localSearch(eval, seed, Objective::kMinPeriodForLatency, kInfinity);
  EXPECT_TRUE(r.feasible);
  EXPECT_DOUBLE_EQ(r.metrics.period, 5);
  EXPECT_EQ(r.mapping.intervalCount(), 2u);
  EXPECT_GE(r.roundsAccepted, 1u);
}

TEST(LocalSearch, LocalOptimumTakesZeroRounds) {
  const Pipeline pipe({5}, {0, 0});
  const Platform plat({2, 1}, 1);
  const Evaluator eval(pipe, plat);
  const auto seed = eval.optimalLatencyMapping();  // only sensible mapping
  const auto r = localSearch(eval, seed, Objective::kMinLatencyForPeriod, kInfinity);
  EXPECT_EQ(r.roundsAccepted, 0u);
  EXPECT_EQ(r.mapping, seed);
}

TEST(LocalSearch, MergesAwayUselessCutsWhenCommsDominate) {
  // Seed splits a comm-heavy pipeline across two processors; merging back to
  // one interval removes the expensive internal transfer.
  const Pipeline pipe({1, 1}, {0, 100, 0});
  const Platform plat = Platform::homogeneous(2, 1, 1);
  const Evaluator eval(pipe, plat);
  const auto seed = IntervalMapping::fromCuts(2, {0, 1}, {0, 1});
  ASSERT_DOUBLE_EQ(eval.period(seed), 101);
  const auto r = localSearch(eval, seed, Objective::kMinPeriodForLatency, kInfinity);
  EXPECT_EQ(r.mapping.intervalCount(), 1u);
  EXPECT_DOUBLE_EQ(r.metrics.period, 2);
}

TEST(LocalSearch, WalksFromInfeasibleToFeasible) {
  // The Lemma-1 seed exceeds the period bound; the bound is reachable by
  // splitting. Local search must cross the infeasible region.
  const Pipeline pipe({6, 6}, {0, 0, 0});
  const Platform plat({1, 1}, 1);
  const Evaluator eval(pipe, plat);
  const auto seed = eval.optimalLatencyMapping();  // period 12
  const auto r = localSearch(eval, seed, Objective::kMinLatencyForPeriod, 6.5);
  EXPECT_TRUE(r.feasible);
  EXPECT_LE(r.metrics.period, 6.5 + 1e-9);
}

TEST(LocalSearch, ReportsInfeasibleWhenThresholdIsUnreachable) {
  const Pipeline pipe({4}, {0, 0});
  const Platform plat({2}, 1);
  const Evaluator eval(pipe, plat);
  const auto seed = eval.optimalLatencyMapping();  // period 2, the only mapping
  const auto r = localSearch(eval, seed, Objective::kMinLatencyForPeriod, 1.0);
  EXPECT_FALSE(r.feasible);
  EXPECT_DOUBLE_EQ(r.metrics.period, 2);
}

TEST(LocalSearch, RunsOnFullyHeterogeneousPlatforms) {
  const Pipeline pipe({3, 7, 2}, {1, 4, 2, 1});
  const auto plat = Platform::fullyHeterogeneous(
      {2, 3, 1}, {1, 5, 2, 4, 1, 8, 3, 6, 1}, {9, 2, 4}, {3, 7, 5});
  const Evaluator eval(pipe, plat);
  const auto seed = eval.optimalLatencyMapping();
  const auto r = localSearch(eval, seed, Objective::kMinPeriodForLatency, kInfinity);
  EXPECT_NO_THROW(r.mapping.validate(3, 3));
  EXPECT_LE(r.metrics.period, eval.period(seed) + 1e-9);
  // Metrics must be consistent with a fresh evaluation of the mapping.
  EXPECT_DOUBLE_EQ(r.metrics.period, eval.period(r.mapping));
  EXPECT_DOUBLE_EQ(r.metrics.latency, eval.latency(r.mapping));
}

struct SweepCase {
  ExperimentKind kind;
  std::size_t n, p;
  std::uint64_t seed;
};

class LocalSearchSweep : public ::testing::TestWithParam<SweepCase> {};

TEST_P(LocalSearchSweep, RefinementNeverWorsensAnyPaperHeuristic) {
  const SweepCase& c = GetParam();
  Rng rng(c.seed);
  const auto inst = workload::randomInstance(c.kind, c.n, c.p, rng);
  const Evaluator eval(inst.pipeline, inst.platform);
  for (const auto& h : makeAllHeuristics()) {
    const Real threshold = h->failureThreshold(eval) * 1.2;
    const Result seeded = h->run(eval, threshold);
    ASSERT_TRUE(seeded.success) << h->name();
    const Result refined = refineWithLocalSearch(eval, *h, threshold);
    EXPECT_TRUE(refined.success) << h->name();
    EXPECT_NO_THROW(refined.mapping.validate(c.n, c.p)) << h->name();
    if (h->objective() == Objective::kMinLatencyForPeriod) {
      EXPECT_LE(refined.metrics.latency, seeded.metrics.latency + 1e-9) << h->name();
      EXPECT_LE(refined.metrics.period, threshold + 1e-6) << h->name();
    } else {
      EXPECT_LE(refined.metrics.period, seeded.metrics.period + 1e-9) << h->name();
      EXPECT_LE(refined.metrics.latency, threshold + 1e-6) << h->name();
    }
  }
}

TEST_P(LocalSearchSweep, NeverBeatsTheExactOptimumButGetsClose) {
  const SweepCase& c = GetParam();
  if (c.n > 9 || c.p > 4) GTEST_SKIP() << "exhaustive baseline too large";
  Rng rng(c.seed ^ 0xA11CE);
  const auto inst = workload::randomInstance(c.kind, c.n, c.p, rng);
  const Evaluator eval(inst.pipeline, inst.platform);
  const auto exact = exact::exhaustiveMinPeriod(eval);
  ASSERT_TRUE(exact.has_value());
  const auto r = localSearch(eval, eval.optimalLatencyMapping(),
                             Objective::kMinPeriodForLatency, kInfinity);
  EXPECT_GE(r.metrics.period + 1e-9, exact->metrics.period);
  // Steepest descent from the Lemma-1 seed stays within 2x of optimal on
  // these sizes — a regression canary, not a theorem.
  EXPECT_LE(r.metrics.period, exact->metrics.period * 2 + 1e-9);
}

INSTANTIATE_TEST_SUITE_P(
    Cases, LocalSearchSweep,
    ::testing::Values(SweepCase{ExperimentKind::kE1BalancedHomComm, 8, 4, 11},
                      SweepCase{ExperimentKind::kE2BalancedHetComm, 9, 4, 12},
                      SweepCase{ExperimentKind::kE3LargeComputations, 8, 3, 13},
                      SweepCase{ExperimentKind::kE4SmallComputations, 9, 3, 14},
                      SweepCase{ExperimentKind::kE1BalancedHomComm, 16, 8, 15},
                      SweepCase{ExperimentKind::kE2BalancedHetComm, 20, 10, 16}),
    [](const auto& paramInfo) {
      return "n" + std::to_string(paramInfo.param.n) + "p" + std::to_string(paramInfo.param.p) +
             "s" + std::to_string(paramInfo.param.seed);
    });

TEST(LocalSearch, DisablingMoveClassesStillReturnsValidMappings) {
  Rng rng(77);
  const auto inst = workload::randomInstance(ExperimentKind::kE1BalancedHomComm, 10, 5, rng);
  const Evaluator eval(inst.pipeline, inst.platform);
  LocalSearchOptions opts;
  opts.splitMoves = false;
  opts.mergeMoves = false;
  const auto r = localSearch(eval, eval.optimalLatencyMapping(),
                             Objective::kMinPeriodForLatency, kInfinity, opts);
  EXPECT_NO_THROW(r.mapping.validate(10, 5));
  // Without split moves the Lemma-1 seed has no neighbors that change m.
  EXPECT_EQ(r.mapping.intervalCount(), 1u);
}

TEST(LocalSearch, DeltaKernelMatchesRebuildPathBitForBit) {
  const ExperimentKind kinds[] = {
      ExperimentKind::kE1BalancedHomComm, ExperimentKind::kE2BalancedHetComm,
      ExperimentKind::kE3LargeComputations, ExperimentKind::kE4SmallComputations};
  Rng rng(4242);
  for (int i = 0; i < 8; ++i) {
    const auto inst = workload::randomInstance(kinds[i % 4], 10, 5, rng);
    const Evaluator eval(inst.pipeline, inst.platform);
    const auto seed = eval.optimalLatencyMapping();
    const Objective obj =
        i % 2 == 0 ? Objective::kMinLatencyForPeriod : Objective::kMinPeriodForLatency;
    const Real base = obj == Objective::kMinLatencyForPeriod ? eval.period(seed)
                                                             : eval.latency(seed);
    const auto a = localSearch(eval, seed, obj, base * 0.8);
    const auto b = oracles::localSearchRebuild(eval, seed, obj, base * 0.8);
    EXPECT_EQ(a.mapping, b.mapping);
    EXPECT_EQ(a.metrics, b.metrics);  // Metrics compares the doubles exactly
    EXPECT_EQ(a.roundsAccepted, b.roundsAccepted);
    EXPECT_EQ(a.feasible, b.feasible);
  }
}

TEST(LocalSearch, DeltaKernelMatchesRebuildOnFullyHeterogeneousPlatforms) {
  const Pipeline pipe({3, 7, 2, 5, 4, 6}, {1, 4, 0, 3, 1, 2, 1});
  const auto plat = Platform::fullyHeterogeneous(
      {2, 3, 1, 2.5}, {1, 5, 2, 3, 4, 1, 8, 2, 3, 6, 1, 4, 2, 5, 3, 1}, {9, 2, 4, 3},
      {3, 7, 5, 2});
  const Evaluator eval(pipe, plat);
  const auto seed = eval.optimalLatencyMapping();
  const Real threshold = eval.period(seed) * 0.7;
  const auto a = localSearch(eval, seed, Objective::kMinLatencyForPeriod, threshold);
  const auto b =
      oracles::localSearchRebuild(eval, seed, Objective::kMinLatencyForPeriod, threshold);
  EXPECT_EQ(a.mapping, b.mapping);
  EXPECT_EQ(a.metrics, b.metrics);
  EXPECT_EQ(a.roundsAccepted, b.roundsAccepted);
  EXPECT_EQ(a.feasible, b.feasible);
}

TEST(LocalSearch, MaxRoundsCapsTheDescent) {
  const Pipeline pipe({5, 5, 5, 5}, {0, 0, 0, 0, 0});
  const Platform plat = Platform::homogeneous(4, 1, 1);
  const Evaluator eval(pipe, plat);
  LocalSearchOptions opts;
  opts.maxRounds = 1;
  const auto r = localSearch(eval, eval.optimalLatencyMapping(),
                             Objective::kMinPeriodForLatency, kInfinity, opts);
  EXPECT_EQ(r.roundsAccepted, 1u);
}

}  // namespace
}  // namespace pipesched::heuristics
