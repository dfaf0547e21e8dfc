// Differential suite for the incremental evaluation kernel: delta-maintained
// Metrics must be BIT-identical (operator==, no tolerance) to a fresh
// Evaluator::evaluate of the materialized mapping, across comm models,
// comm-homogeneous and fully-heterogeneous platforms (including zero-size
// transfers), and long random apply/undo sequences.
#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <vector>

#include "pipesched/core/delta_evaluation.hpp"
#include "pipesched/workload/rng.hpp"

namespace pipesched::core {
namespace {

using workload::Rng;

struct Instance {
  Pipeline pipeline;
  Platform platform;
};

Instance randomCommHomogeneous(std::size_t n, std::size_t p, Rng& rng) {
  std::vector<Real> work(n);
  std::vector<Real> comm(n + 1);
  for (Real& w : work) w = rng.uniform(0.5, 10);
  for (Real& d : comm) d = rng.uniform(0, 5);
  std::vector<Real> speeds(p);
  for (Real& s : speeds) s = rng.uniform(0.5, 4);
  return Instance{Pipeline(std::move(work), std::move(comm)),
                  Platform(std::move(speeds), rng.uniform(0.5, 3))};
}

/// Fully-heterogeneous platform; every third pipeline transfer has size zero
/// (zero-size transfers must stay free regardless of the link looked up).
Instance randomFullyHeterogeneous(std::size_t n, std::size_t p, Rng& rng) {
  std::vector<Real> work(n);
  std::vector<Real> comm(n + 1);
  for (Real& w : work) w = rng.uniform(0.5, 10);
  for (std::size_t k = 0; k <= n; ++k) comm[k] = (k % 3 == 2) ? Real(0) : rng.uniform(0.1, 5);
  std::vector<Real> speeds(p);
  for (Real& s : speeds) s = rng.uniform(0.5, 4);
  std::vector<Real> links(p * p);
  for (Real& b : links) b = rng.uniform(0.5, 4);
  std::vector<Real> in(p);
  std::vector<Real> out(p);
  for (Real& b : in) b = rng.uniform(0.5, 4);
  for (Real& b : out) b = rng.uniform(0.5, 4);
  return Instance{Pipeline(std::move(work), std::move(comm)),
                  Platform::fullyHeterogeneous(std::move(speeds), std::move(links),
                                               std::move(in), std::move(out))};
}

/// A random valid mapping: random cut count, random cut positions, random
/// distinct processors.
IntervalMapping randomMapping(std::size_t n, std::size_t p, Rng& rng) {
  const std::size_t m =
      1 + static_cast<std::size_t>(rng.uniformInt(0, static_cast<std::int64_t>(std::min(n, p)) - 1));
  std::vector<std::size_t> ends;
  while (ends.size() + 1 < m) {
    const std::size_t e = static_cast<std::size_t>(rng.uniformInt(0, static_cast<std::int64_t>(n) - 2));
    if (std::find(ends.begin(), ends.end(), e) == ends.end()) ends.push_back(e);
  }
  ends.push_back(n - 1);
  std::sort(ends.begin(), ends.end());
  std::vector<std::size_t> procs;
  while (procs.size() < m) {
    const std::size_t u = static_cast<std::size_t>(rng.uniformInt(0, static_cast<std::int64_t>(p) - 1));
    if (std::find(procs.begin(), procs.end(), u) == procs.end()) procs.push_back(u);
  }
  return IntervalMapping::fromCuts(n, ends, procs);
}

/// Samples a random move valid-shaped for the current scratch state (the
/// kernel's own guards may still reject it; callers skip those).
Move randomMove(const DeltaEvaluator& delta, std::size_t p, Rng& rng) {
  const std::size_t m = delta.intervalCount();
  const auto pick = [&](std::size_t hi) {
    return static_cast<std::size_t>(rng.uniformInt(0, static_cast<std::int64_t>(hi)));
  };
  switch (rng.uniformInt(0, 5)) {
    case 0:
      return Move::shiftLeft(pick(m - 1));
    case 1:
      return Move::shiftRight(pick(m - 1));
    case 2:
      return Move::swapProcessors(pick(m - 1), pick(m - 1));
    case 3:
      return Move::reassign(pick(m - 1), pick(p - 1));
    case 4:
      return Move::merge(pick(m - 1), rng.uniformInt(0, 1) == 0);
    default: {
      const std::size_t j = pick(m - 1);
      const Interval iv = delta.assignment(j).interval;
      if (iv.length() < 2) return Move::split(j, iv.first, pick(p - 1));  // rejected
      const std::size_t q = iv.first + pick(iv.length() - 2);
      return Move::split(j, q, pick(p - 1));
    }
  }
}

/// A random 1..3-part replacement tiling interval j, for
/// DeltaEvaluator::replaceInterval. Each part's processor is drawn from the
/// owner, the unused processors or the processors other intervals use, and
/// no processor repeats, so the kernel must refuse it exactly when a
/// non-owner part lands on a used processor (reported through `refused`).
std::vector<Assignment> randomReplacement(const DeltaEvaluator& delta, std::size_t j,
                                          std::size_t p, Rng& rng, bool& refused) {
  const auto pick = [&](std::size_t hi) {
    return static_cast<std::size_t>(rng.uniformInt(0, static_cast<std::int64_t>(hi)));
  };
  const Interval victim = delta.assignment(j).interval;
  const std::size_t owner = delta.assignment(j).processor;
  const std::size_t count = 1 + pick(std::min<std::size_t>(2, victim.length() - 1));
  std::vector<std::size_t> ends;
  while (ends.size() + 1 < count) {
    const std::size_t e = victim.first + pick(victim.length() - 2);
    if (std::find(ends.begin(), ends.end(), e) == ends.end()) ends.push_back(e);
  }
  std::sort(ends.begin(), ends.end());
  ends.push_back(victim.last);

  std::vector<Assignment> parts;
  refused = false;
  std::size_t first = victim.first;
  for (const std::size_t last : ends) {
    const auto taken = [&](std::size_t u) {
      return std::any_of(parts.begin(), parts.end(),
                         [&](const Assignment& a) { return a.processor == u; });
    };
    std::vector<std::size_t> pool;
    const std::size_t kind = pick(2);  // 0 owner, 1 unused, 2 used elsewhere
    for (std::size_t u = 0; u < p; ++u) {
      const bool matches = kind == 0   ? u == owner
                           : kind == 1 ? !delta.processorUsed(u)
                                       : u != owner && delta.processorUsed(u);
      if (matches && !taken(u)) pool.push_back(u);
    }
    if (pool.empty()) {  // that kind is exhausted: any processor not yet taken
      for (std::size_t u = 0; u < p; ++u) {
        if (!taken(u)) pool.push_back(u);
      }
    }
    const std::size_t u = pool[pick(pool.size() - 1)];
    refused = refused || (u != owner && delta.processorUsed(u));
    parts.push_back(Assignment{{first, last}, u});
    first = last + 1;
  }
  return parts;
}

void expectStateMatchesFreshEvaluate(DeltaEvaluator& delta, const Evaluator& eval) {
  const IntervalMapping materialized = delta.mapping();
  const Metrics fresh = eval.evaluate(materialized);
  const Metrics incremental = delta.metrics();
  // Bit-identity: Metrics::operator== compares the doubles exactly.
  EXPECT_EQ(incremental, fresh) << materialized.describe();
  // The flat cycle buffer must match per-interval recomputation exactly too.
  for (std::size_t j = 0; j < delta.intervalCount(); ++j) {
    EXPECT_EQ(delta.cycle(j), eval.intervalCycle(materialized, j));
  }
}

void expectUsedBitmapConsistent(const DeltaEvaluator& delta, std::size_t p) {
  std::vector<bool> expected(p, false);
  for (const Assignment& a : delta.assignments()) expected[a.processor] = true;
  for (std::size_t u = 0; u < p; ++u) {
    EXPECT_EQ(delta.processorUsed(u), expected[u]) << "processor " << u;
  }
}

struct Config {
  bool hetero;
  CommModel model;
};

class DeltaEvaluationRandomized : public ::testing::TestWithParam<Config> {};

TEST_P(DeltaEvaluationRandomized, LoadMatchesFreshEvaluate) {
  Rng rng(7);
  for (int round = 0; round < 20; ++round) {
    const std::size_t n = 3 + static_cast<std::size_t>(rng.uniformInt(0, 9));
    const std::size_t p = 2 + static_cast<std::size_t>(rng.uniformInt(0, 6));
    const Instance inst = GetParam().hetero ? randomFullyHeterogeneous(n, p, rng)
                                            : randomCommHomogeneous(n, p, rng);
    const Evaluator eval(inst.pipeline, inst.platform, GetParam().model);
    EvalWorkspace ws;
    DeltaEvaluator delta(eval, ws);
    delta.load(randomMapping(n, p, rng));
    expectStateMatchesFreshEvaluate(delta, eval);
    expectUsedBitmapConsistent(delta, p);
  }
}

TEST_P(DeltaEvaluationRandomized, LongMoveSequenceStaysBitIdentical) {
  Rng rng(11);
  for (int round = 0; round < 6; ++round) {
    const std::size_t n = 5 + static_cast<std::size_t>(rng.uniformInt(0, 7));
    const std::size_t p = 3 + static_cast<std::size_t>(rng.uniformInt(0, 5));
    const Instance inst = GetParam().hetero ? randomFullyHeterogeneous(n, p, rng)
                                            : randomCommHomogeneous(n, p, rng);
    const Evaluator eval(inst.pipeline, inst.platform, GetParam().model);
    EvalWorkspace ws;
    ws.reserve(p, p);
    DeltaEvaluator delta(eval, ws);
    delta.load(randomMapping(n, p, rng));

    int applied = 0;
    int replaced = 0;
    int refusedReplaces = 0;
    for (int step = 0; step < 300; ++step) {
      if (rng.uniformInt(0, 5) == 0) {
        // The splitting engine's edit: replace interval j by 1..3 parts. The
        // kernel must agree bit for bit with IntervalMapping::replaceInterval
        // + a full evaluate, and refuse exactly the busy-processor cases.
        const std::size_t j = static_cast<std::size_t>(
            rng.uniformInt(0, static_cast<std::int64_t>(delta.intervalCount()) - 1));
        bool refuse = false;
        const std::vector<Assignment> parts = randomReplacement(delta, j, p, rng, refuse);
        const IntervalMapping before = delta.mapping();
        if (!delta.replaceInterval(j, parts.data(), parts.size())) {
          EXPECT_TRUE(refuse) << before.describe();
          EXPECT_EQ(delta.mapping(), before);
          ++refusedReplaces;
          continue;
        }
        EXPECT_FALSE(refuse) << before.describe();
        IntervalMapping reference = before;
        reference.replaceInterval(j, parts);
        EXPECT_EQ(delta.mapping(), reference);
        EXPECT_EQ(delta.metrics(), eval.evaluate(reference)) << reference.describe();
        for (std::size_t r = 0; r < parts.size(); ++r) {
          EXPECT_EQ(delta.cycle(j + r), eval.intervalCycle(reference, j + r));
        }
        ++replaced;
      } else {
        const Move move = randomMove(delta, p, rng);
        // peek() must agree with apply + metrics exactly, succeed on every
        // applicable move of any kind, and reject whatever apply rejects.
        const std::optional<Metrics> peeked = delta.peek(move);
        if (!delta.apply(move)) {
          EXPECT_FALSE(peeked.has_value());
          continue;
        }
        ASSERT_TRUE(peeked.has_value());
        EXPECT_EQ(*peeked, delta.metrics());
        ++applied;
      }
      if (rng.uniformInt(0, 2) == 0) {
        // Reject: undo must restore the previous state bit for bit.
        delta.undo();
      } else {
        delta.commit();
      }
      expectStateMatchesFreshEvaluate(delta, eval);
      expectUsedBitmapConsistent(delta, p);
      if (::testing::Test::HasFailure()) return;
    }
    // The guard set must still let a healthy share of moves through, and
    // the replacements must exercise both outcomes.
    EXPECT_GT(applied, 50);
    EXPECT_GT(replaced, 5);
    EXPECT_GT(refusedReplaces, 0);
  }
}

TEST_P(DeltaEvaluationRandomized, UndoRestoresExactSnapshot) {
  Rng rng(23);
  for (int round = 0; round < 10; ++round) {
    const std::size_t n = 6;
    const std::size_t p = 5;
    const Instance inst = GetParam().hetero ? randomFullyHeterogeneous(n, p, rng)
                                            : randomCommHomogeneous(n, p, rng);
    const Evaluator eval(inst.pipeline, inst.platform, GetParam().model);
    EvalWorkspace ws;
    DeltaEvaluator delta(eval, ws);
    delta.load(randomMapping(n, p, rng));

    for (int step = 0; step < 60; ++step) {
      const std::vector<Assignment> before = delta.assignments();
      const Metrics beforeMetrics = delta.metrics();
      const Move move = randomMove(delta, p, rng);
      if (!delta.apply(move)) {
        // A rejected move must not have touched anything.
        EXPECT_EQ(delta.assignments(), before);
        EXPECT_EQ(delta.metrics(), beforeMetrics);
        continue;
      }
      delta.undo();
      EXPECT_EQ(delta.assignments(), before);
      EXPECT_EQ(delta.metrics(), beforeMetrics);
      expectUsedBitmapConsistent(delta, p);
      if (::testing::Test::HasFailure()) return;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Configs, DeltaEvaluationRandomized,
    ::testing::Values(Config{false, CommModel::kSequential},
                      Config{false, CommModel::kOverlapped},
                      Config{true, CommModel::kSequential},
                      Config{true, CommModel::kOverlapped}),
    [](const ::testing::TestParamInfo<Config>& info) {
      std::string name = info.param.hetero ? "hetero" : "commHom";
      name += info.param.model == CommModel::kSequential ? "Sequential" : "Overlapped";
      return name;
    });

// ---------------------------------------------------------------------------
// Deterministic corner cases.

class DeltaEvaluationFixture : public ::testing::Test {
 protected:
  Pipeline pipe_{{2, 4, 6, 3, 5}, {1, 2, 3, 4, 2, 1}};
  Platform plat_{{2, 1, 3, 1.5}, 2};
  Evaluator eval_{pipe_, plat_};
  EvalWorkspace ws_;
};

TEST_F(DeltaEvaluationFixture, ReplaceIntervalMatchesMappingReplace) {
  DeltaEvaluator delta(eval_, ws_);
  IntervalMapping mapping = IntervalMapping::fromCuts(5, {1, 4}, {0, 1});
  delta.load(mapping);

  // Two-way replacement of interval 1 = [2,4]: [2,3]->P1, [4,4]->P2.
  const Assignment rep2[] = {Assignment{{2, 3}, 1}, Assignment{{4, 4}, 2}};
  ASSERT_TRUE(delta.replaceInterval(1, rep2, 2));
  IntervalMapping reference = mapping;
  reference.replaceInterval(1, {rep2[0], rep2[1]});
  EXPECT_EQ(delta.mapping(), reference);
  EXPECT_EQ(delta.metrics(), eval_.evaluate(reference));
  delta.undo();
  EXPECT_EQ(delta.mapping(), mapping);

  // Three-way replacement moving everything off the owner.
  const Assignment rep3[] = {Assignment{{2, 2}, 2}, Assignment{{3, 3}, 3},
                             Assignment{{4, 4}, 1}};
  ASSERT_TRUE(delta.replaceInterval(1, rep3, 3));
  reference = mapping;
  reference.replaceInterval(1, {rep3[0], rep3[1], rep3[2]});
  EXPECT_EQ(delta.mapping(), reference);
  EXPECT_EQ(delta.metrics(), eval_.evaluate(reference));
  expectUsedBitmapConsistent(delta, 4);
  delta.commit();
}

TEST_F(DeltaEvaluationFixture, ReplaceIntervalRejectsUsedProcessor) {
  DeltaEvaluator delta(eval_, ws_);
  delta.load(IntervalMapping::fromCuts(5, {1, 4}, {0, 1}));
  const Metrics before = delta.metrics();
  // P0 is used by interval 0, so the tail of this replacement is invalid.
  const Assignment rep[] = {Assignment{{2, 3}, 1}, Assignment{{4, 4}, 0}};
  EXPECT_FALSE(delta.replaceInterval(1, rep, 2));
  EXPECT_EQ(delta.metrics(), before);
}

TEST_F(DeltaEvaluationFixture, ReplaceIntervalThrowsOnBadTiling) {
  DeltaEvaluator delta(eval_, ws_);
  delta.load(IntervalMapping::fromCuts(5, {1, 4}, {0, 1}));
  const Assignment bad[] = {Assignment{{2, 3}, 1}};  // does not cover [2,4]
  EXPECT_THROW((void)delta.replaceInterval(1, bad, 1), MappingError);
}

TEST_F(DeltaEvaluationFixture, InapplicableMovesAreRejected) {
  DeltaEvaluator delta(eval_, ws_);
  delta.load(IntervalMapping::fromCuts(5, {0, 4}, {0, 1}));
  EXPECT_FALSE(delta.apply(Move::shiftLeft(0)));        // left interval is a singleton
  EXPECT_FALSE(delta.apply(Move::shiftRight(1)));       // no interval 2
  EXPECT_FALSE(delta.apply(Move::swapProcessors(0, 0)));
  EXPECT_FALSE(delta.apply(Move::reassign(0, 1)));      // P1 is used
  EXPECT_FALSE(delta.apply(Move::reassign(0, 99)));     // out of range
  EXPECT_FALSE(delta.apply(Move::merge(1, true)));      // no interval 2
  EXPECT_FALSE(delta.apply(Move::split(0, 0, 2)));      // singleton cannot split
  EXPECT_FALSE(delta.apply(Move::split(1, 4, 2)));      // q == last is not a cut
  EXPECT_THROW(delta.undo(), ModelError);               // nothing ever applied
}

TEST_F(DeltaEvaluationFixture, WorkspaceIsReusableAcrossInstances) {
  DeltaEvaluator delta(eval_, ws_);
  delta.load(IntervalMapping::fromCuts(5, {2, 4}, {2, 0}));
  ASSERT_TRUE(delta.apply(Move::merge(0, true)));
  delta.commit();

  // Re-bind the same workspace to a different instance and model.
  Pipeline pipe2{{1, 1, 1}, {0, 1, 0, 2}};
  Platform plat2{{1, 2}, 1};
  Evaluator eval2(pipe2, plat2, CommModel::kOverlapped);
  DeltaEvaluator delta2(eval2, ws_);
  delta2.load(IntervalMapping::fromCuts(3, {0, 2}, {1, 0}));
  EXPECT_EQ(delta2.metrics(), eval2.evaluate(delta2.mapping()));
}

TEST_F(DeltaEvaluationFixture, MetricsMatchAfterEachPrimitiveKind) {
  DeltaEvaluator delta(eval_, ws_);
  delta.load(IntervalMapping::fromCuts(5, {1, 3, 4}, {0, 1, 2}));
  const Move moves[] = {
      Move::shiftLeft(0),  Move::shiftRight(0),          Move::swapProcessors(0, 2),
      Move::reassign(1, 3), Move::merge(1, false),       Move::split(0, 0, 1),
  };
  for (const Move& move : moves) {
    ASSERT_TRUE(delta.apply(move));
    expectStateMatchesFreshEvaluate(delta, eval_);
    delta.commit();
  }
}

TEST(EvaluatorCyclesOverload, FillsCallerBuffer) {
  Pipeline pipe{{2, 4, 6}, {1, 2, 3, 4}};
  Platform plat{{2, 1}, 2};
  Evaluator eval(pipe, plat);
  const auto m = IntervalMapping::fromCuts(3, {0, 2}, {0, 1});
  std::vector<Real> buffer(17, -1);  // stale oversized buffer must be resized
  eval.cycles(m, buffer);
  ASSERT_EQ(buffer.size(), 2u);
  EXPECT_EQ(buffer, eval.cycles(m));
}

TEST(EvaluatorRawPartsOverload, MatchesMappingEvaluate) {
  Pipeline pipe{{2, 4, 6, 3}, {1, 2, 0, 4, 2}};
  Platform plat{{2, 1, 3}, 2};
  for (const CommModel model : {CommModel::kSequential, CommModel::kOverlapped}) {
    const Evaluator eval(pipe, plat, model);
    const auto m = IntervalMapping::fromCuts(4, {1, 3}, {2, 0});
    EXPECT_EQ(eval.evaluate(m.assignments()), eval.evaluate(m));
  }
}

TEST(IntervalMappingFromValidated, SkipsReordering) {
  std::vector<Assignment> parts = {Assignment{{0, 1}, 3}, Assignment{{2, 4}, 1}};
  const IntervalMapping m = IntervalMapping::fromValidated(parts);
  EXPECT_EQ(m.assignments(), parts);
  EXPECT_TRUE(m.isValid(5, 4));
}

}  // namespace
}  // namespace pipesched::core
