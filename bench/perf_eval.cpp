// Evaluation-kernel bench: candidate-scoring throughput of the delta kernel
// (DeltaEvaluator::peek — patched terms + prefix-resumed fold, no state
// change) versus the historical rebuild pattern (copy the assignment vector,
// edit, reconstruct the IntervalMapping, full Evaluator::evaluate) at
// several interval counts, plus the end-to-end wall time of the ls:/sa:
// refiner members: the library's delta-kernel loops against their
// copy-edit-rebuild twins from pipesched_oracles. Emits the machine-readable
// BENCH_eval.json tracking the perf trajectory:
//
//   {"benchmark":"perf_eval",
//    "kernel":[{"m":4,"delta_moves_per_second":...,
//               "rebuild_moves_per_second":...,"speedup":...},...],
//    "members":{"local_search":{"rebuild_seconds":...,"delta_seconds":...,
//                               "speedup":...},
//               "annealing":{...}}}
//
// Both paths score the SAME pre-generated move list against the SAME base
// mapping (each score is one candidate-neighbor evaluation, the dominant
// operation of every refinement hot loop) and must score every candidate
// bit-identically; the refiner runs must return identical results. Any
// mismatch aborts the bench.
//
// Usage: perf_eval [--sizes LIST] [--candidates N] [--min-seconds S]
//                  [--output FILE]
#include <chrono>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "pipesched/core/delta_evaluation.hpp"
#include "pipesched/heuristics/annealing.hpp"
#include "pipesched/heuristics/local_search.hpp"
#include "pipesched/heuristics/registry.hpp"
#include "pipesched/io/json.hpp"
#include "pipesched/oracles/search_rebuild.hpp"
#include "pipesched/workload/generator.hpp"
#include "pipesched/workload/rng.hpp"

namespace {

using namespace pipesched;
using core::Assignment;
using core::DeltaEvaluator;
using core::EvalWorkspace;
using core::Evaluator;
using core::IntervalMapping;
using core::Move;
using Clock = std::chrono::steady_clock;

double seconds(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

struct KernelSample {
  std::size_t m = 0;
  double deltaMovesPerSecond = 0;
  double rebuildMovesPerSecond = 0;
  double speedup = 0;
};

struct Instance {
  core::Pipeline pipeline;
  core::Platform platform;
};

/// Comm-homogeneous instance sized so a mapping with m intervals has both
/// room to shift cuts (2m stages) and spare processors to reassign to.
Instance makeInstance(std::size_t m, workload::Rng& rng) {
  const std::size_t n = 2 * m;
  const std::size_t p = m + 2;
  std::vector<Real> work(n);
  std::vector<Real> comm(n + 1);
  for (Real& w : work) w = rng.uniform(0.5, 10);
  for (Real& d : comm) d = rng.uniform(0, 5);
  std::vector<Real> speeds(p);
  for (Real& s : speeds) s = rng.uniform(0.5, 4);
  return Instance{core::Pipeline(std::move(work), std::move(comm)),
                  core::Platform(std::move(speeds), 2)};
}

/// Base mapping with exactly m two-stage intervals on processors 0..m-1.
IntervalMapping makeMapping(std::size_t m) {
  std::vector<std::size_t> ends(m);
  std::vector<std::size_t> procs(m);
  for (std::size_t j = 0; j < m; ++j) {
    ends[j] = 2 * j + 1;
    procs[j] = j;
  }
  return IntervalMapping::fromCuts(2 * m, ends, procs);
}

/// Random m-preserving moves (shift/swap/reassign), all applicable to the
/// base mapping — scoring undoes each move, so applicability is stable.
std::vector<Move> makeMoves(std::size_t m, std::size_t p, std::size_t count,
                            workload::Rng& rng) {
  std::vector<Move> moves;
  moves.reserve(count);
  while (moves.size() < count) {
    switch (rng.uniformInt(0, 2)) {
      case 0: {  // shift a cut (every base interval has 2 stages)
        const auto j = static_cast<std::size_t>(
            rng.uniformInt(0, static_cast<std::int64_t>(m) - 2));
        moves.push_back(rng.uniformInt(0, 1) == 0 ? Move::shiftLeft(j) : Move::shiftRight(j));
        break;
      }
      case 1: {  // swap two processors
        const auto j = static_cast<std::size_t>(
            rng.uniformInt(0, static_cast<std::int64_t>(m) - 1));
        const auto k = static_cast<std::size_t>(
            rng.uniformInt(0, static_cast<std::int64_t>(m) - 1));
        if (j == k) continue;
        moves.push_back(Move::swapProcessors(j, k));
        break;
      }
      default: {  // reassign to one of the spare processors m..p-1
        const auto j = static_cast<std::size_t>(
            rng.uniformInt(0, static_cast<std::int64_t>(m) - 1));
        const auto u = static_cast<std::size_t>(
            rng.uniformInt(static_cast<std::int64_t>(m), static_cast<std::int64_t>(p) - 1));
        moves.push_back(Move::reassign(j, u));
        break;
      }
    }
  }
  return moves;
}

/// Applies `move` to a raw assignment list (the rebuild path's edit step).
void applyToParts(std::vector<Assignment>& parts, const Move& move) {
  switch (move.kind) {
    case Move::Kind::kShiftLeft:
      --parts[move.j].interval.last;
      --parts[move.j + 1].interval.first;
      break;
    case Move::Kind::kShiftRight:
      ++parts[move.j].interval.last;
      ++parts[move.j + 1].interval.first;
      break;
    case Move::Kind::kSwap:
      std::swap(parts[move.j].processor, parts[move.k].processor);
      break;
    default:
      parts[move.j].processor = move.u;
      break;
  }
}

KernelSample measureKernel(std::size_t m, std::size_t candidates, double minSeconds,
                           workload::Rng& rng) {
  const Instance inst = makeInstance(m, rng);
  const Evaluator eval(inst.pipeline, inst.platform);
  const IntervalMapping base = makeMapping(m);
  const std::vector<Move> moves =
      makeMoves(m, inst.platform.processorCount(), candidates, rng);

  EvalWorkspace workspace;
  workspace.reserve(inst.platform.processorCount(), inst.platform.processorCount());
  DeltaEvaluator delta(eval, workspace);
  delta.load(base);
  (void)delta.metrics();

  // Verification pass: both paths must score every candidate bit-identically
  // (a mismatch means the kernel broke).
  for (const Move& move : moves) {
    const std::optional<core::Metrics> peeked = delta.peek(move);
    if (!peeked) {
      throw std::runtime_error("perf_eval: generated move was rejected at m=" +
                               std::to_string(m));
    }
    std::vector<Assignment> parts = base.assignments();
    applyToParts(parts, move);
    const core::Metrics rebuilt = eval.evaluate(IntervalMapping(std::move(parts)));
    if (!(*peeked == rebuilt)) {
      throw std::runtime_error("perf_eval: delta/rebuild mismatch at m=" + std::to_string(m));
    }
  }

  // Delta path: one peek() per candidate — the scoring operation the search
  // hot loops perform. The sink keeps the metrics read observable.
  Real sink = 0;
  std::size_t deltaMoves = 0;
  const Clock::time_point d0 = Clock::now();
  Clock::time_point d1;
  do {
    for (const Move& move : moves) {
      sink += delta.peek(move)->period;
    }
    deltaMoves += moves.size();
    d1 = Clock::now();
  } while (seconds(d0, d1) < minSeconds);

  // Rebuild path: copy, edit, reconstruct (ordering re-checked), evaluate.
  std::size_t rebuildMoves = 0;
  const Clock::time_point r0 = Clock::now();
  Clock::time_point r1;
  do {
    for (const Move& move : moves) {
      std::vector<Assignment> parts = base.assignments();
      applyToParts(parts, move);
      const IntervalMapping neighbor(std::move(parts));
      sink += eval.evaluate(neighbor).period;
    }
    rebuildMoves += moves.size();
    r1 = Clock::now();
  } while (seconds(r0, r1) < minSeconds);
  if (sink == Real(-1)) std::cerr << "";  // defeat dead-code elimination

  const double deltaRate = static_cast<double>(deltaMoves) / seconds(d0, d1);
  const double rebuildRate = static_cast<double>(rebuildMoves) / seconds(r0, r1);
  return KernelSample{m, deltaRate, rebuildRate, deltaRate / rebuildRate};
}

struct MemberSample {
  double rebuildSeconds = 0;
  double deltaSeconds = 0;
  double speedup = 0;
};

/// One refined mapping and its metrics, as a refiner run returns them.
using Refined = std::pair<IntervalMapping, core::Metrics>;

/// Wall time of the ls:/sa: refiner work unit (seed heuristic's mapping
/// refined at a few thresholds): `run(false)` through the copy-edit-rebuild
/// reference in pipesched_oracles, `run(true)` through the library's delta
/// kernel. The two must refine to identical results, or the bench aborts.
template <typename RunFn>
MemberSample measureMember(const std::string& name, RunFn&& run) {
  const Clock::time_point r0 = Clock::now();
  const std::vector<Refined> rebuilt = run(false);
  const Clock::time_point r1 = Clock::now();
  const std::vector<Refined> delta = run(true);
  const Clock::time_point r2 = Clock::now();
  if (rebuilt != delta) {
    throw std::runtime_error("perf_eval: delta/rebuild mismatch in the " + name + " refiner");
  }
  MemberSample s;
  s.rebuildSeconds = seconds(r0, r1);
  s.deltaSeconds = seconds(r1, r2);
  s.speedup = s.deltaSeconds > 0 ? s.rebuildSeconds / s.deltaSeconds : 1.0;
  return s;
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<std::size_t> sizes = {4, 16, 64};
  std::size_t candidates = 256;
  double minSeconds = 0.2;
  std::string output = "BENCH_eval.json";
  const auto usage = [&] {
    std::cerr << "usage: " << argv[0]
              << " [--sizes LIST] [--candidates N] [--min-seconds S] [--output FILE]\n";
    return 2;
  };
  try {
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      const auto next = [&]() -> std::string {
        if (i + 1 >= argc) throw std::runtime_error("missing value for " + arg);
        return argv[++i];
      };
      if (arg == "--candidates") candidates = std::stoul(next());
      else if (arg == "--min-seconds") minSeconds = std::stod(next());
      else if (arg == "--output") output = next();
      else if (arg == "--sizes") {
        sizes.clear();
        std::stringstream ss(next());
        std::string token;
        while (std::getline(ss, token, ',')) sizes.push_back(std::stoul(token));
      } else {
        return usage();
      }
    }
  } catch (const std::exception& e) {
    std::cerr << "perf_eval: " << e.what() << "\n";
    return usage();
  }
  if (sizes.empty() || candidates == 0) return usage();

  workload::Rng rng(20070628);
  std::cout << "perf_eval: candidate scoring, delta kernel vs rebuild\n";
  std::vector<KernelSample> samples;
  for (const std::size_t m : sizes) {
    if (m < 2) {
      std::cerr << "perf_eval: --sizes entries must be >= 2\n";
      return 2;
    }
    const KernelSample s = measureKernel(m, candidates, minSeconds, rng);
    samples.push_back(s);
    std::cout << "  m=" << s.m << ": delta " << s.deltaMovesPerSecond << " moves/s, rebuild "
              << s.rebuildMovesPerSecond << " moves/s, speedup " << s.speedup << "x\n";
  }

  // Refiner-member wall time: ls:/sa: work units exactly as the portfolio
  // runs them (the dominant cost since PR 3) — the base heuristic's mapping
  // at each grid threshold, polished under that threshold. The seeds are
  // precomputed so both paths time pure refinement.
  workload::Rng instRng(7);
  const auto inst =
      workload::randomInstance(workload::ExperimentKind::kE2BalancedHetComm, 12, 8, instRng);
  const Evaluator eval(inst.pipeline, inst.platform);
  const std::unique_ptr<heuristics::MappingHeuristic> base =
      heuristics::makeHeuristic(heuristics::HeuristicId::kH1SpMonoP);
  const Real lo = base->failureThreshold(eval);
  std::vector<Real> thresholds;
  std::vector<heuristics::Result> seeds;
  for (int i = 0; i < 6; ++i) {
    const Real t = lo * (1.0 + 0.4 * i);
    thresholds.push_back(t);
    seeds.push_back(base->run(eval, t));
  }

  const MemberSample ls = measureMember("ls", [&](bool useDelta) {
    std::vector<Refined> out;
    for (int rep = 0; rep < 40; ++rep) {
      for (std::size_t i = 0; i < thresholds.size(); ++i) {
        const heuristics::LocalSearchResult r =
            useDelta ? heuristics::localSearch(eval, seeds[i].mapping, base->objective(),
                                               thresholds[i])
                     : oracles::localSearchRebuild(eval, seeds[i].mapping, base->objective(),
                                                   thresholds[i]);
        out.emplace_back(r.mapping, r.metrics);
      }
    }
    return out;
  });
  std::cout << "  ls refiner: rebuild " << ls.rebuildSeconds << " s, delta " << ls.deltaSeconds
            << " s, speedup " << ls.speedup << "x\n";

  const MemberSample sa = measureMember("sa", [&](bool useDelta) {
    std::vector<Refined> out;
    heuristics::AnnealingOptions options;
    options.moves = 20'000;
    for (std::size_t i = 0; i < thresholds.size(); i += 2) {
      options.seed = static_cast<std::uint64_t>(i + 1);
      const heuristics::AnnealingResult r =
          useDelta ? heuristics::anneal(eval, seeds[i].mapping, base->objective(),
                                        thresholds[i], options)
                   : oracles::annealRebuild(eval, seeds[i].mapping, base->objective(),
                                            thresholds[i], options);
      out.emplace_back(r.mapping, r.metrics);
    }
    return out;
  });
  std::cout << "  sa refiner: rebuild " << sa.rebuildSeconds << " s, delta " << sa.deltaSeconds
            << " s, speedup " << sa.speedup << "x\n";

  std::ofstream os(output);
  if (!os) {
    std::cerr << "cannot write " << output << "\n";
    return 1;
  }
  io::JsonWriter w(os, /*pretty=*/true);
  w.beginObject();
  w.kv("benchmark", "perf_eval");
  w.kv("candidates", candidates);
  w.key("kernel").beginArray();
  for (const KernelSample& s : samples) {
    w.beginObject();
    w.kv("m", s.m);
    w.kv("delta_moves_per_second", s.deltaMovesPerSecond);
    w.kv("rebuild_moves_per_second", s.rebuildMovesPerSecond);
    w.kv("speedup", s.speedup);
    w.endObject();
  }
  w.endArray();
  w.key("members").beginObject();
  w.key("local_search").beginObject();
  w.kv("rebuild_seconds", ls.rebuildSeconds);
  w.kv("delta_seconds", ls.deltaSeconds);
  w.kv("speedup", ls.speedup);
  w.endObject();
  w.key("annealing").beginObject();
  w.kv("rebuild_seconds", sa.rebuildSeconds);
  w.kv("delta_seconds", sa.deltaSeconds);
  w.kv("speedup", sa.speedup);
  w.endObject();
  w.endObject();
  w.endObject();
  os << "\n";
  std::cout << "wrote " << output << "\n";
  return 0;
}
