// Simulated annealing: determinism, best-state tracking, feasibility
// reporting, metric consistency, and never-worse-than-seed guarantees.
#include <gtest/gtest.h>

#include "pipesched/heuristics/annealing.hpp"
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

TEST(Annealing, RejectsZeroMoveBudgetAndInvalidSeed) {
  const Pipeline pipe({1, 2}, {0, 0, 0});
  const Platform plat({1, 2}, 1);
  const Evaluator eval(pipe, plat);
  AnnealingOptions opts;
  opts.moves = 0;
  EXPECT_THROW((void)anneal(eval, eval.optimalLatencyMapping(),
                            Objective::kMinPeriodForLatency, kInfinity, opts),
               ModelError);
  const auto bad = IntervalMapping::fromCuts(3, {2}, {0});
  EXPECT_THROW((void)anneal(eval, bad, Objective::kMinPeriodForLatency, kInfinity),
               MappingError);
}

TEST(Annealing, DeterministicForAFixedSeed) {
  Rng rng(500);
  const auto inst = workload::randomInstance(ExperimentKind::kE2BalancedHetComm, 12, 6, rng);
  const Evaluator eval(inst.pipeline, inst.platform);
  AnnealingOptions opts;
  opts.seed = 99;
  opts.moves = 5'000;
  const auto a = anneal(eval, eval.optimalLatencyMapping(),
                        Objective::kMinPeriodForLatency, kInfinity, opts);
  const auto b = anneal(eval, eval.optimalLatencyMapping(),
                        Objective::kMinPeriodForLatency, kInfinity, opts);
  EXPECT_EQ(a.mapping, b.mapping);
  EXPECT_EQ(a.accepted, b.accepted);
  EXPECT_DOUBLE_EQ(a.metrics.period, b.metrics.period);
}

TEST(Annealing, NeverWorseThanTheSeedOnTheOptimizedCriterion) {
  for (std::uint64_t s : {601, 602, 603}) {
    Rng rng(s);
    const auto inst = workload::randomInstance(ExperimentKind::kE1BalancedHomComm, 10, 6, rng);
    const Evaluator eval(inst.pipeline, inst.platform);
    const auto seed = eval.optimalLatencyMapping();
    const Real seedPeriod = eval.period(seed);
    AnnealingOptions opts;
    opts.seed = s;
    opts.moves = 8'000;
    const auto r = anneal(eval, seed, Objective::kMinPeriodForLatency, kInfinity, opts);
    EXPECT_TRUE(r.feasible);  // threshold infinity: every state is feasible
    EXPECT_LE(r.metrics.period, seedPeriod + 1e-9);
    EXPECT_NO_THROW(r.mapping.validate(10, 6));
  }
}

TEST(Annealing, FindsTheObviousSplitOnATinyInstance) {
  const Pipeline pipe({5, 5}, {0, 0, 0});
  const Platform plat({1, 1}, 1);
  const Evaluator eval(pipe, plat);
  AnnealingOptions opts;
  opts.seed = 7;
  opts.moves = 2'000;
  const auto r = anneal(eval, eval.optimalLatencyMapping(),
                        Objective::kMinPeriodForLatency, kInfinity, opts);
  EXPECT_DOUBLE_EQ(r.metrics.period, 5);
  EXPECT_EQ(r.mapping.intervalCount(), 2u);
}

TEST(Annealing, ReportsInfeasibleForUnreachableThresholds) {
  const Pipeline pipe({4}, {0, 0});
  const Platform plat({2, 1}, 1);
  const Evaluator eval(pipe, plat);
  AnnealingOptions opts;
  opts.seed = 3;
  opts.moves = 500;
  // Latency below the Lemma-1 optimum (2.0) is unreachable by definition.
  const auto r = anneal(eval, eval.optimalLatencyMapping(),
                        Objective::kMinPeriodForLatency, 1.0, opts);
  EXPECT_FALSE(r.feasible);
  EXPECT_NO_THROW(r.mapping.validate(1, 2));
}

TEST(Annealing, RespectsAFeasibleLatencyCap) {
  for (std::uint64_t s : {701, 702}) {
    Rng rng(s);
    const auto inst = workload::randomInstance(ExperimentKind::kE2BalancedHetComm, 10, 5, rng);
    const Evaluator eval(inst.pipeline, inst.platform);
    const Real cap = eval.optimalLatency() * 1.3;
    AnnealingOptions opts;
    opts.seed = s;
    opts.moves = 8'000;
    const auto r = anneal(eval, eval.optimalLatencyMapping(),
                          Objective::kMinPeriodForLatency, cap, opts);
    ASSERT_TRUE(r.feasible);
    EXPECT_LE(r.metrics.latency, cap + 1e-6);
  }
}

TEST(Annealing, MetricsMatchAFreshEvaluation) {
  Rng rng(800);
  const auto inst = workload::randomInstance(ExperimentKind::kE3LargeComputations, 8, 4, rng);
  const Evaluator eval(inst.pipeline, inst.platform);
  AnnealingOptions opts;
  opts.seed = 800;
  opts.moves = 3'000;
  const auto r = anneal(eval, eval.optimalLatencyMapping(),
                        Objective::kMinLatencyForPeriod,
                        eval.period(eval.optimalLatencyMapping()), opts);
  EXPECT_DOUBLE_EQ(r.metrics.period, eval.period(r.mapping));
  EXPECT_DOUBLE_EQ(r.metrics.latency, eval.latency(r.mapping));
}

TEST(Annealing, DeltaKernelMatchesRebuildPathBitForBit) {
  // Both paths draw the same random sequence and score through the same
  // breakdown fill, so trajectories — and hence results — are bit-identical.
  const ExperimentKind kinds[] = {
      ExperimentKind::kE1BalancedHomComm, ExperimentKind::kE2BalancedHetComm,
      ExperimentKind::kE3LargeComputations, ExperimentKind::kE4SmallComputations};
  Rng rng(515);
  for (int i = 0; i < 4; ++i) {
    const auto inst = workload::randomInstance(kinds[i], 9, 5, rng);
    const Evaluator eval(inst.pipeline, inst.platform);
    const auto seed = eval.optimalLatencyMapping();
    const Objective obj =
        i % 2 == 0 ? Objective::kMinLatencyForPeriod : Objective::kMinPeriodForLatency;
    const Real base =
        obj == Objective::kMinLatencyForPeriod ? eval.period(seed) : eval.latency(seed);
    AnnealingOptions deltaOpts;
    deltaOpts.seed = 100 + static_cast<std::uint64_t>(i);
    deltaOpts.moves = 4'000;
    const auto a = anneal(eval, seed, obj, base * 0.75, deltaOpts);
    const auto b = oracles::annealRebuild(eval, seed, obj, base * 0.75, deltaOpts);
    EXPECT_EQ(a.mapping, b.mapping);
    EXPECT_EQ(a.metrics, b.metrics);  // Metrics compares the doubles exactly
    EXPECT_EQ(a.feasible, b.feasible);
    EXPECT_EQ(a.accepted, b.accepted);
  }
}

TEST(Annealing, DeltaKernelMatchesRebuildOnFullyHeterogeneousPlatforms) {
  const Pipeline pipe({3, 7, 2, 5}, {1, 4, 2, 3, 1});
  const auto plat = Platform::fullyHeterogeneous(
      {2, 3, 1}, {1, 5, 2, 4, 1, 8, 3, 6, 1}, {9, 2, 4}, {3, 7, 5});
  const Evaluator eval(pipe, plat);
  const auto seed = eval.optimalLatencyMapping();
  AnnealingOptions deltaOpts;
  deltaOpts.seed = 99;
  deltaOpts.moves = 4'000;
  const auto a = anneal(eval, seed, Objective::kMinPeriodForLatency, kInfinity, deltaOpts);
  const auto b = oracles::annealRebuild(eval, seed, Objective::kMinPeriodForLatency,
                                        kInfinity, deltaOpts);
  EXPECT_EQ(a.mapping, b.mapping);
  EXPECT_EQ(a.metrics, b.metrics);
  EXPECT_EQ(a.feasible, b.feasible);
  EXPECT_EQ(a.accepted, b.accepted);
}

TEST(Annealing, WorksOnFullyHeterogeneousPlatforms) {
  const Pipeline pipe({3, 7, 2, 5}, {1, 4, 2, 3, 1});
  const auto plat = Platform::fullyHeterogeneous(
      {2, 3, 1}, {1, 5, 2, 4, 1, 8, 3, 6, 1}, {9, 2, 4}, {3, 7, 5});
  const Evaluator eval(pipe, plat);
  AnnealingOptions opts;
  opts.seed = 5;
  opts.moves = 4'000;
  const auto seed = eval.optimalLatencyMapping();
  const auto r = anneal(eval, seed, Objective::kMinPeriodForLatency, kInfinity, opts);
  EXPECT_NO_THROW(r.mapping.validate(4, 3));
  EXPECT_LE(r.metrics.period, eval.period(seed) + 1e-9);
}

}  // namespace
}  // namespace pipesched::heuristics
