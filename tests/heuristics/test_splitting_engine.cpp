// Unit tests of the shared splitting engine: initial solution, admissibility,
// selection rules (including an instance where the mono and bi-criteria rules
// provably choose different splits), latency caps, 3-way splits and their
// degenerate fallbacks, and determinism.
#include <gtest/gtest.h>

#include "pipesched/core/evaluation.hpp"
#include "pipesched/heuristics/splitting_engine.hpp"

namespace pipesched::heuristics {
namespace {

using core::Evaluator;
using core::Pipeline;
using core::Platform;

EngineConfig config(SelectionRule rule, SplitArity arity,
                    std::optional<Real> target = std::nullopt, Real cap = kInfinity) {
  EngineConfig c;
  c.rule = rule;
  c.arity = arity;
  c.periodTarget = target;
  c.latencyCap = cap;
  return c;
}

TEST(SplittingEngine, StartsFromLemma1Solution) {
  const Pipeline pipe({4, 4}, {0, 0, 0});
  const Platform plat({2, 1}, 1);
  const Evaluator eval(pipe, plat);
  // No split improves (both orders leave a cycle of 4), so the engine must
  // return the initial single-interval mapping on the fastest processor.
  const EngineResult r =
      runSplittingEngine(eval, config(SelectionRule::kMonoMax, SplitArity::kTwo));
  EXPECT_EQ(r.mapping, core::IntervalMapping::singleInterval(2, 0));
  EXPECT_EQ(r.splits, 0u);
  EXPECT_DOUBLE_EQ(r.metrics.period, 4);
  EXPECT_TRUE(r.reachedTarget);  // exhaustion mode always "reaches"
}

TEST(SplittingEngine, AcceptsImprovingSplit) {
  const Pipeline pipe({6, 2}, {0, 0, 0});
  const Platform plat({2, 1}, 1);
  const Evaluator eval(pipe, plat);
  const EngineResult r =
      runSplittingEngine(eval, config(SelectionRule::kMonoMax, SplitArity::kTwo));
  // Best split: [0,0] stays on the fast P0 (cycle 3), [1,1] to P1 (cycle 2).
  EXPECT_EQ(r.splits, 1u);
  EXPECT_DOUBLE_EQ(r.metrics.period, 3);
  ASSERT_EQ(r.mapping.intervalCount(), 2u);
  EXPECT_EQ(r.mapping.processor(0), 0u);
  EXPECT_EQ(r.mapping.processor(1), 1u);
}

TEST(SplittingEngine, StopsAtPeriodTarget) {
  const Pipeline pipe({6, 2}, {0, 0, 0});
  const Platform plat({2, 1}, 1);
  const Evaluator eval(pipe, plat);
  // Target 4 is met by the initial mapping: no split may happen.
  const EngineResult r = runSplittingEngine(
      eval, config(SelectionRule::kMonoMax, SplitArity::kTwo, Real(4)));
  EXPECT_TRUE(r.reachedTarget);
  EXPECT_EQ(r.splits, 0u);
  // Target 3 requires exactly one split.
  const EngineResult r2 = runSplittingEngine(
      eval, config(SelectionRule::kMonoMax, SplitArity::kTwo, Real(3)));
  EXPECT_TRUE(r2.reachedTarget);
  EXPECT_EQ(r2.splits, 1u);
  // Target 1 is unreachable.
  const EngineResult r3 = runSplittingEngine(
      eval, config(SelectionRule::kMonoMax, SplitArity::kTwo, Real(1)));
  EXPECT_FALSE(r3.reachedTarget);
}

// Instance engineered so the two selection rules disagree (see the numbers in
// the comments): w = {1, 7.5, 3}, delta = {0, 0.1, 0.5, 0}, speeds {3, 1}.
//  * cut after stage 0, parts -> (P1, P0): cycles {1.1, 3.6},
//      dLatency ~ 0.767, score = 0.767/0.233 ~ 3.29
//  * cut after stage 1, parts -> (P0, P1): cycles {3.433, 3.5},
//      dLatency = 2.5,  score = 2.5/0.333 = 7.5
// MonoMax prefers the second (max cycle 3.5 < 3.6); BiRatio the first.
class RuleDivergenceFixture : public ::testing::Test {
 protected:
  Pipeline pipe_{{1, 7.5, 3}, {0, 0.1, 0.5, 0}};
  Platform plat_{{3, 1}, 1};
  Evaluator eval_{pipe_, plat_};
};

TEST_F(RuleDivergenceFixture, MonoMaxPicksSmallestMaxCycle) {
  const EngineResult r =
      runSplittingEngine(eval_, config(SelectionRule::kMonoMax, SplitArity::kTwo));
  ASSERT_EQ(r.mapping.intervalCount(), 2u);
  EXPECT_EQ(r.mapping.interval(0), (core::Interval{0, 1}));
  EXPECT_EQ(r.mapping.processor(0), 0u);
  EXPECT_EQ(r.mapping.processor(1), 1u);
  EXPECT_NEAR(r.metrics.period, 3.5, 1e-12);
}

TEST_F(RuleDivergenceFixture, BiRatioPicksSmallestLatencyPerPeriodGain) {
  const EngineResult r =
      runSplittingEngine(eval_, config(SelectionRule::kBiRatio, SplitArity::kTwo));
  ASSERT_EQ(r.mapping.intervalCount(), 2u);
  EXPECT_EQ(r.mapping.interval(0), (core::Interval{0, 0}));
  EXPECT_EQ(r.mapping.processor(0), 1u);
  EXPECT_EQ(r.mapping.processor(1), 0u);
  EXPECT_NEAR(r.metrics.period, 3.6, 1e-12);
}

TEST_F(RuleDivergenceFixture, LatencyCapBlocksExpensiveSplits) {
  // Both candidates raise the latency above 4.3 (to ~4.6 and ~6.33): with a
  // cap of 4.3 no split is admissible.
  const EngineResult r = runSplittingEngine(
      eval_, config(SelectionRule::kBiRatio, SplitArity::kTwo, std::nullopt, Real(4.3)));
  EXPECT_EQ(r.splits, 0u);
  // Cap 4.7 admits only the cheap (q=0) split.
  const EngineResult r2 = runSplittingEngine(
      eval_, config(SelectionRule::kMonoMax, SplitArity::kTwo, std::nullopt, Real(4.7)));
  EXPECT_EQ(r2.splits, 1u);
  EXPECT_NEAR(r2.metrics.period, 3.6, 1e-12);
  EXPECT_LE(r2.metrics.latency, 4.7 + kTimeEps);
}

TEST(SplittingEngine, ThreeWaySplitUsesTwoNewProcessors) {
  const Pipeline pipe({6, 2, 2}, {0, 0, 0, 0});
  const Platform plat({2, 1, 1}, 1);
  const Evaluator eval(pipe, plat);
  const EngineResult r =
      runSplittingEngine(eval, config(SelectionRule::kMonoMax, SplitArity::kThree));
  // Expected: [0,0] on P0 (3), [1,1] and [2,2] on the unit-speed processors.
  ASSERT_EQ(r.mapping.intervalCount(), 3u);
  EXPECT_EQ(r.splits, 1u);
  EXPECT_DOUBLE_EQ(r.metrics.period, 3);
  EXPECT_EQ(r.mapping.processor(0), 0u);
}

TEST(SplittingEngine, ThreeWayFallsBackToTwoWayWithOneSpareProcessor) {
  const Pipeline pipe({6, 2, 2}, {0, 0, 0, 0});
  const Platform plat({2, 1}, 1);  // only one unused processor after init
  const Evaluator eval(pipe, plat);
  const EngineResult r =
      runSplittingEngine(eval, config(SelectionRule::kMonoMax, SplitArity::kThree));
  // 2-way fallback: [0,0]->P0 (3), [1,2]->P1 (4). Max 4 < 5: accepted.
  ASSERT_EQ(r.mapping.intervalCount(), 2u);
  EXPECT_DOUBLE_EQ(r.metrics.period, 4);
}

TEST(SplittingEngine, ThreeWayTwoStageVictimMaySkipTheOwner) {
  // Victim has 2 stages; the pair {a1, a2} (excluding the owner) is allowed.
  // Speeds: owner 4, spares 3 and 3. w = {9, 9}: owner alone: 18/4 = 4.5.
  // (P0,a1): {2.25, 3}; (a1,a2): {3, 3}. Best is (P0,a1) with max 3;
  // both rules keep the owner here, but the pair set must at least be legal.
  const Pipeline pipe({9, 9}, {0, 0, 0});
  const Platform plat({4, 3, 3}, 1);
  const Evaluator eval(pipe, plat);
  const EngineResult r =
      runSplittingEngine(eval, config(SelectionRule::kMonoMax, SplitArity::kThree));
  EXPECT_EQ(r.mapping.intervalCount(), 2u);
  EXPECT_DOUBLE_EQ(r.metrics.period, 3);
  EXPECT_NO_THROW(r.mapping.validate(2, 3));
}

TEST(SplittingEngine, SingleStageCannotSplit) {
  const Pipeline pipe({10}, {1, 1});
  const Platform plat({2, 1}, 1);
  const Evaluator eval(pipe, plat);
  const EngineResult r = runSplittingEngine(
      eval, config(SelectionRule::kMonoMax, SplitArity::kTwo, Real(0.1)));
  EXPECT_FALSE(r.reachedTarget);
  EXPECT_EQ(r.mapping.intervalCount(), 1u);
}

TEST(SplittingEngine, DeterministicAcrossRuns) {
  const Pipeline pipe({3, 1, 4, 1, 5, 9, 2, 6}, {2, 1, 3, 2, 1, 4, 2, 3, 1});
  const Platform plat({9, 9, 5, 5, 2}, 10);  // ties on purpose
  const Evaluator eval(pipe, plat);
  const EngineResult a =
      runSplittingEngine(eval, config(SelectionRule::kBiRatio, SplitArity::kThree));
  const EngineResult b =
      runSplittingEngine(eval, config(SelectionRule::kBiRatio, SplitArity::kThree));
  EXPECT_EQ(a.mapping, b.mapping);
  EXPECT_EQ(a.splits, b.splits);
}

TEST(SplittingEngine, PeriodNeverIncreasesAcrossConfigurationsOfSameRule) {
  // Running to exhaustion can only improve (or preserve) the period
  // relative to any intermediate target.
  const Pipeline pipe({3, 1, 4, 1, 5, 9, 2, 6}, {2, 1, 3, 2, 1, 4, 2, 3, 1});
  const Platform plat({9, 7, 5, 3, 2}, 10);
  const Evaluator eval(pipe, plat);
  const EngineResult exhaust =
      runSplittingEngine(eval, config(SelectionRule::kMonoMax, SplitArity::kTwo));
  const EngineResult targeted = runSplittingEngine(
      eval, config(SelectionRule::kMonoMax, SplitArity::kTwo, exhaust.metrics.period * 1.5));
  EXPECT_LE(exhaust.metrics.period, targeted.metrics.period + kTimeEps);
}

TEST(SplittingEngine, LatencyCapAlwaysRespectedWhenInitialFits) {
  const Pipeline pipe({3, 1, 4, 1, 5, 9, 2, 6}, {2, 1, 3, 2, 1, 4, 2, 3, 1});
  const Platform plat({9, 7, 5, 3, 2}, 10);
  const Evaluator eval(pipe, plat);
  const Real cap = eval.optimalLatency() * 1.15;
  const EngineResult r = runSplittingEngine(
      eval, config(SelectionRule::kMonoMax, SplitArity::kTwo, std::nullopt, cap));
  EXPECT_LE(r.metrics.latency, cap + kTimeEps);
}

TEST(SplittingEngine, EveryRuleArityAndTargetIsDeterministic) {
  // H1..H6 are built on this engine, and the committed portfolio golden pins
  // its output byte for byte. Every rule x arity x target combination must
  // give the same result when repeated and on a fresh Evaluator, with
  // metrics bit-identical to a full evaluate of the returned mapping. (The
  // per-candidate score, DeltaEvaluator::replaceInterval, is held bit for bit
  // to IntervalMapping::replaceInterval + Evaluator::evaluate by the
  // randomized kernel suite in tests/core/test_delta_evaluation.cpp.)
  const Pipeline pipe({3, 1, 4, 1, 5, 9, 2, 6}, {2, 1, 3, 2, 1, 4, 2, 3, 1});
  const Platform plat({9, 7, 5, 3, 2}, 10);
  const Evaluator eval(pipe, plat);
  const Real exhaustPeriod =
      runSplittingEngine(eval, config(SelectionRule::kMonoMax, SplitArity::kTwo))
          .metrics.period;
  for (const SelectionRule rule : {SelectionRule::kMonoMax, SelectionRule::kBiRatio}) {
    for (const SplitArity arity : {SplitArity::kTwo, SplitArity::kThree}) {
      for (const std::optional<Real> target :
           {std::optional<Real>{}, std::optional<Real>{exhaustPeriod * 1.3}}) {
        const EngineConfig c = config(rule, arity, target, eval.optimalLatency() * 1.4);
        const EngineResult a = runSplittingEngine(eval, c);
        const EngineResult b = runSplittingEngine(eval, c);
        const Evaluator fresh(pipe, plat);
        const EngineResult f = runSplittingEngine(fresh, c);
        for (const EngineResult* other : {&b, &f}) {
          EXPECT_EQ(a.mapping, other->mapping);
          EXPECT_EQ(a.metrics, other->metrics);  // Metrics compares the doubles exactly
          EXPECT_EQ(a.splits, other->splits);
          EXPECT_EQ(a.reachedTarget, other->reachedTarget);
        }
        EXPECT_EQ(a.metrics, eval.evaluate(a.mapping));
        EXPECT_GT(a.splits, 0u);
      }
    }
  }
}

}  // namespace
}  // namespace pipesched::heuristics
