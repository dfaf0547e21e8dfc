#include "pipesched/heuristics/splitting_engine.hpp"

#include <algorithm>
#include <array>
#include <vector>

#include "pipesched/core/delta_evaluation.hpp"

namespace pipesched::heuristics {

namespace {

using core::Assignment;
using core::Interval;

struct Candidate {
  /// Replacement parts inline (2-way and 3-way splits only) so scoring a
  /// candidate never allocates.
  std::array<Assignment, 3> parts{};
  std::size_t count = 0;
  Real maxNewCycle = kInfinity;
  Real latencyAfter = kInfinity;
  Real score = kInfinity;

  /// Deterministic strict-weak ordering: primary score, then the two
  /// secondary criteria, so equal-score candidates resolve identically on
  /// every run.
  [[nodiscard]] bool betterThan(const Candidate& other) const {
    if (score != other.score) return score < other.score;
    if (maxNewCycle != other.maxNewCycle) return maxNewCycle < other.maxNewCycle;
    return latencyAfter < other.latencyAfter;
  }
};

/// Removes `value` from a vector (first occurrence).
void removeValue(std::vector<std::size_t>& v, std::size_t value) {
  const auto it = std::find(v.begin(), v.end(), value);
  if (it != v.end()) v.erase(it);
}

class Engine {
 public:
  Engine(const Evaluator& eval, const EngineConfig& config)
      : eval_(eval), config_(config), delta_(eval, workspace_) {
    workspace_.reserve(eval.platform().processorCount(), eval.platform().processorCount());
    delta_.load(eval.optimalLatencyMapping());
    const std::size_t owner = delta_.assignment(0).processor;
    for (std::size_t u : eval.platform().processorsBySpeed()) {
      if (u != owner) available_.push_back(u);
    }
  }

  EngineResult run() {
    EngineResult result;
    for (;;) {
      const Metrics metrics = delta_.metrics();
      if (config_.periodTarget &&
          lessOrNearlyEqual(metrics.period, *config_.periodTarget)) {
        result.reachedTarget = true;
        break;
      }
      if (result.splits >= config_.maxSplits) break;
      const std::optional<Candidate> best = bestCandidate(metrics);
      if (!best) break;
      applyCandidate(metrics.bottleneckInterval, *best);
      ++result.splits;
    }
    result.mapping = delta_.mapping();
    result.metrics = delta_.metrics();
    if (!config_.periodTarget) result.reachedTarget = true;  // exhaustion mode
    core::recordDeltaKernelStats(delta_.stats());
    return result;
  }

 private:
  /// Enumerates the admissible splits of the bottleneck interval and returns
  /// the rule-best one, or nullopt when no admissible split exists.
  std::optional<Candidate> bestCandidate(const Metrics& metrics) {
    const std::size_t j = metrics.bottleneckInterval;
    const Interval victim = delta_.assignment(j).interval;
    const std::size_t owner = delta_.assignment(j).processor;
    const Real cycleBefore = delta_.cycle(j);
    const Real latencyBefore = metrics.latency;

    if (victim.length() < 2 || available_.empty()) return std::nullopt;
    const std::size_t a1 = available_[0];
    const bool haveSecond = available_.size() > 1;
    const std::size_t a2 = haveSecond ? available_[1] : a1;

    std::optional<Candidate> best;
    const auto consider = [&](const Candidate& replacement) {
      Candidate c = replacement;
      scoreCandidate(j, c, cycleBefore, latencyBefore);
      if (c.score == kInfinity) return;  // inadmissible
      if (!best || c.betterThan(*best)) best = c;
    };
    const auto twoWay = [](Interval head, std::size_t pa, Interval tail, std::size_t pb) {
      Candidate c;
      c.parts[0] = Assignment{head, pa};
      c.parts[1] = Assignment{tail, pb};
      c.count = 2;
      return c;
    };

    const bool threeWay = config_.arity == SplitArity::kThree && victim.length() >= 3 &&
                          haveSecond;
    if (threeWay) {
      // All cut pairs, all 6 assignments of the parts to {owner, a1, a2}.
      const std::size_t procs[3] = {owner, a1, a2};
      for (std::size_t q1 = victim.first; q1 + 1 <= victim.last; ++q1) {
        for (std::size_t q2 = q1 + 1; q2 <= victim.last - 1; ++q2) {
          const Interval parts[3] = {{victim.first, q1}, {q1 + 1, q2}, {q2 + 1, victim.last}};
          std::size_t perm[3] = {0, 1, 2};
          do {
            Candidate c;
            c.parts[0] = Assignment{parts[0], procs[perm[0]]};
            c.parts[1] = Assignment{parts[1], procs[perm[1]]};
            c.parts[2] = Assignment{parts[2], procs[perm[2]]};
            c.count = 3;
            consider(c);
          } while (std::next_permutation(std::begin(perm), std::end(perm)));
        }
      }
      return best;
    }

    // Two-way splits. For 3-Explo on a 2-stage victim the paper's 3-way
    // split degenerates; we try every ordered processor pair drawn from
    // {owner, a1, a2} (documented in DESIGN.md). Plain Sp-* heuristics use
    // {owner, a1} in both orders.
    std::vector<std::pair<std::size_t, std::size_t>> pairs = {{owner, a1}, {a1, owner}};
    if (config_.arity == SplitArity::kThree && haveSecond && victim.length() == 2) {
      pairs.push_back({owner, a2});
      pairs.push_back({a2, owner});
      pairs.push_back({a1, a2});
      pairs.push_back({a2, a1});
    }
    for (std::size_t q = victim.first; q + 1 <= victim.last; ++q) {
      const Interval head{victim.first, q};
      const Interval tail{q + 1, victim.last};
      for (const auto& [pa, pb] : pairs) {
        consider(twoWay(head, pa, tail, pb));
      }
    }
    return best;
  }

  /// Scores one replacement of interval j in place (replaceInterval, read,
  /// undo); leaves score == kInfinity when the candidate is inadmissible
  /// (uses a busy processor, does not strictly improve the bottleneck cycle,
  /// or violates the latency cap).
  void scoreCandidate(std::size_t j, Candidate& c, Real cycleBefore, Real latencyBefore) {
    if (!delta_.replaceInterval(j, c.parts.data(), c.count)) return;
    const Metrics m = delta_.metrics();
    Real maxCycle = 0;
    Real minGain = kInfinity;
    Real maxGain = 0;
    for (std::size_t r = 0; r < c.count; ++r) {
      const Real cycle = delta_.cycle(j + r);
      maxCycle = std::max(maxCycle, cycle);
      const Real gain = cycleBefore - cycle;
      minGain = std::min(minGain, gain);
      maxGain = std::max(maxGain, gain);
    }
    delta_.undo();
    c.latencyAfter = m.latency;
    c.maxNewCycle = maxCycle;

    const bool improves = definitelyLess(maxCycle, cycleBefore);
    const bool fitsLatency = lessOrNearlyEqual(m.latency, config_.latencyCap);
    if (!improves || !fitsLatency) return;  // score stays kInfinity

    if (config_.rule == SelectionRule::kMonoMax) {
      c.score = maxCycle;
    } else {
      // max_i dLatency / dPeriod(i); all gains are > 0 thanks to `improves`.
      const Real dLat = m.latency - latencyBefore;
      c.score = dLat >= 0 ? dLat / minGain : dLat / maxGain;
    }
  }

  void applyCandidate(std::size_t j, const Candidate& candidate) {
    const std::size_t owner = delta_.assignment(j).processor;
    delta_.replaceInterval(j, candidate.parts.data(), candidate.count);
    delta_.commit();

    bool ownerStillUsed = false;
    for (std::size_t r = 0; r < candidate.count; ++r) {
      const Assignment& a = candidate.parts[r];
      if (a.processor == owner) {
        ownerStillUsed = true;
      } else {
        removeValue(available_, a.processor);
      }
    }
    if (!ownerStillUsed) {
      // Degenerate 3-Explo split that moved both parts off the owner: the
      // owner returns to the pool at its speed-sorted position.
      const auto& plat = eval_.platform();
      const auto pos = std::find_if(
          available_.begin(), available_.end(), [&](std::size_t u) {
            return plat.speed(u) < plat.speed(owner) ||
                   (plat.speed(u) == plat.speed(owner) && u > owner);
          });
      available_.insert(pos, owner);
    }
  }

  const Evaluator& eval_;
  EngineConfig config_;
  core::EvalWorkspace workspace_;
  core::DeltaEvaluator delta_;
  std::vector<std::size_t> available_;  // unused processors, fastest first
};

}  // namespace

EngineResult runSplittingEngine(const Evaluator& eval, const EngineConfig& config) {
  return Engine(eval, config).run();
}

}  // namespace pipesched::heuristics
