// `generate`, `solve`, `eval` — instance creation, heuristic runs and mapping
// evaluation.
#include <algorithm>
#include <ostream>
#include <sstream>

#include "cli_internal.hpp"
#include "pipesched/exp/report.hpp"
#include "pipesched/heuristics/annealing.hpp"
#include "pipesched/heuristics/deal.hpp"
#include "pipesched/heuristics/greedy_probe.hpp"
#include "pipesched/heuristics/local_search.hpp"
#include "pipesched/io/json.hpp"

namespace pipesched::cli::detail {

namespace {

using core::Evaluator;
using core::IntervalMapping;
using core::Metrics;
using heuristics::Objective;

}  // namespace

int cmdGenerate(const ArgList& args, std::ostream& out, std::ostream& /*err*/) {
  const workload::ExperimentKind kind = parseKind(args.require("kind"));
  const std::size_t stages = args.getSize("stages", 0);
  const std::size_t processors = args.getSize("processors", 0);
  if (stages == 0) throw UsageError("--stages must be >= 1");
  if (processors == 0) throw UsageError("--processors must be >= 1");
  const std::uint64_t seed = args.getU64("seed", 1);
  const std::string name = args.getOr("name", "");
  const bool hetero = args.has("hetero");
  const Real bwMin = args.getReal("bw-min", 1);
  const Real bwMax = args.getReal("bw-max", 20);
  const auto outputPath = args.get("output");
  args.assertConsumed();

  workload::Rng rng(seed);
  io::Instance instance{
      workload::randomPipeline(kind, stages, rng),
      hetero ? workload::randomHeterogeneousPlatform(processors, rng, bwMin, bwMax)
             : workload::randomPlatform(processors, rng),
      name};
  (void)outputPath;  // consumed above; writeToFileOr re-reads by name
  writeToFileOr(args, "output", out, [&](std::ostream& os) { io::writeInstance(os, instance); });
  return 0;
}

namespace {

/// One solve-table row.
struct SolveRow {
  std::string name;
  heuristics::Result result;
  Objective objective{};
};

void printSolveTable(std::ostream& out, const std::vector<SolveRow>& rows) {
  exp::TextTable table;
  table.setHeader({"heuristic", "success", "period", "latency", "intervals", "mapping"});
  for (const SolveRow& row : rows) {
    table.addRow({row.name, row.result.success ? "yes" : "no",
                  exp::formatReal(row.result.metrics.period, 4),
                  exp::formatReal(row.result.metrics.latency, 4),
                  std::to_string(row.result.mapping.intervalCount()),
                  row.result.mapping.describe()});
  }
  table.print(out);
}

}  // namespace

int cmdSolve(const ArgList& args, std::ostream& out, std::ostream& err) {
  const io::Instance instance = loadInstance(args);
  const bool hasPeriod = args.has("period");
  const bool hasLatency = args.has("latency");
  if (hasPeriod == hasLatency) {
    throw UsageError("exactly one of --period / --latency is required");
  }
  const Objective objective =
      hasPeriod ? Objective::kMinLatencyForPeriod : Objective::kMinPeriodForLatency;
  const Real threshold = hasPeriod ? args.requireReal("period") : args.requireReal("latency");
  const std::string spec = args.getOr("heuristic", "all");
  const bool refine = args.has("refine");
  const bool baselines = args.has("baselines");
  const bool deal = args.has("deal");
  const bool json = args.has("json");
  const auto mappingOut = args.get("mapping-out");
  const auto dealOut = args.get("deal-out");
  args.assertConsumed();
  if (dealOut && !deal) throw UsageError("--deal-out requires --deal");
  if (deal && !hasPeriod) {
    throw UsageError("--deal needs a --period threshold (it minimizes the period)");
  }
  if (deal && !instance.platform.isCommHomogeneous()) {
    throw UsageError("--deal needs a communication-homogeneous platform");
  }

  const Evaluator eval(instance.pipeline, instance.platform);

  std::vector<SolveRow> rows;
  for (auto& h : parseHeuristics(spec)) {
    if (h->objective() != objective) continue;  // threshold type selects the family
    SolveRow row;
    row.name = h->name();
    row.objective = h->objective();
    row.result = refine ? heuristics::refineWithLocalSearch(eval, *h, threshold)
                        : h->run(eval, threshold);
    if (refine) row.name += "+LS";
    rows.push_back(std::move(row));
  }
  if (rows.empty()) {
    throw UsageError("no heuristic matches the requested objective (H1-H4 take --period, "
                     "H5-H6 take --latency)");
  }
  if (baselines) {
    if (instance.platform.isCommHomogeneous()) {
      SolveRow probe;
      probe.name = "B1-GreedyProbe";
      probe.objective = objective;
      probe.result = heuristics::greedyProbeHeuristic(eval, objective, threshold);
      rows.push_back(std::move(probe));
    }
    SolveRow ls;
    ls.name = "B2-LocalSearch";
    ls.objective = objective;
    const auto lsResult = heuristics::localSearch(eval, eval.optimalLatencyMapping(),
                                                  objective, threshold);
    ls.result.mapping = lsResult.mapping;
    ls.result.metrics = lsResult.metrics;
    ls.result.success = lsResult.feasible;
    rows.push_back(std::move(ls));

    SolveRow sa;
    sa.name = "B3-Annealing";
    sa.objective = objective;
    const auto saResult = heuristics::anneal(eval, eval.optimalLatencyMapping(), objective,
                                             threshold, heuristics::AnnealingOptions{});
    sa.result.mapping = saResult.mapping;
    sa.result.metrics = saResult.metrics;
    sa.result.success = saResult.feasible;
    rows.push_back(std::move(sa));
  }

  // Best = feasible row with the smallest optimized criterion.
  const SolveRow* best = nullptr;
  for (const SolveRow& row : rows) {
    if (!row.result.success) continue;
    const Real primary = objective == Objective::kMinLatencyForPeriod
                             ? row.result.metrics.latency
                             : row.result.metrics.period;
    const Real bestPrimary =
        best == nullptr ? kInfinity
                        : (objective == Objective::kMinLatencyForPeriod
                               ? best->result.metrics.latency
                               : best->result.metrics.period);
    if (primary < bestPrimary) best = &row;
  }

  if (json) {
    if (best == nullptr) {
      err << "no heuristic met the threshold\n";
      return 1;
    }
    io::writeMappingJson(out, best->result.mapping, &best->result.metrics);
  } else {
    out << "instance: " << instance.pipeline.describe() << ", "
        << instance.platform.describe() << "\n";
    out << (hasPeriod ? "objective: min latency s.t. period <= "
                      : "objective: min period s.t. latency <= ")
        << exp::formatReal(threshold, 4) << "\n\n";
    printSolveTable(out, rows);
    if (best != nullptr) out << "\nbest: " << best->name << "\n";
    if (deal) {
      const heuristics::DealResult dealResult = heuristics::spMonoPWithDeal(eval, threshold);
      out << "\ndeal extension (splits + bottleneck replication):\n"
          << "  mapping: " << dealResult.mapping.describe() << "\n"
          << "  period " << exp::formatReal(dealResult.metrics.period, 4) << ", latency "
          << exp::formatReal(dealResult.metrics.latency, 4) << ", replications "
          << dealResult.replications << ", "
          << (dealResult.success ? "meets the bound" : "does NOT meet the bound") << "\n";
      if (dealOut) {
        io::writeReplicatedMappingToFile(*dealOut, dealResult.mapping);
        out << "  written to " << *dealOut << "\n";
      }
    }
  }

  if (best == nullptr) {
    if (!json) err << "no heuristic met the threshold\n";
    return 1;
  }
  if (mappingOut) io::writeMappingToFile(*mappingOut, best->result.mapping);
  return 0;
}

int cmdEval(const ArgList& args, std::ostream& out, std::ostream& /*err*/) {
  const io::Instance instance = loadInstance(args);
  const IntervalMapping mapping = loadMapping(args, instance);
  const bool overlap = args.has("overlap");
  const bool json = args.has("json");
  args.assertConsumed();

  const Evaluator eval(instance.pipeline, instance.platform,
                       overlap ? core::CommModel::kOverlapped : core::CommModel::kSequential);
  const Metrics metrics = eval.evaluate(mapping);

  if (json) {
    io::writeMappingJson(out, mapping, &metrics);
    return 0;
  }
  out << "mapping:  " << mapping.describe() << "\n";
  out << "model:    " << (overlap ? "overlapped (ablation)" : "sequential (paper Eq. 1/2)")
      << "\n";
  out << "period:   " << exp::formatReal(metrics.period, 6) << "\n";
  out << "latency:  " << exp::formatReal(metrics.latency, 6) << "\n\n";
  exp::TextTable table;
  table.setHeader({"interval", "stages", "processor", "input", "compute", "output", "cycle"});
  for (std::size_t j = 0; j < mapping.intervalCount(); ++j) {
    const core::CycleBreakdown b = eval.breakdown(mapping, j);
    const core::Interval iv = mapping.interval(j);
    // Streamed, not `"[" + std::to_string(...)`: g++ 12 reports a false
    // -Wrestrict on that concatenation at -O3.
    std::ostringstream stages, processor;
    stages << '[' << iv.first << ',' << iv.last << ']';
    processor << 'P' << mapping.processor(j);
    table.addRow({std::to_string(j) + (j == metrics.bottleneckInterval ? " *" : ""),
                  std::move(stages).str(), std::move(processor).str(),
                  exp::formatReal(b.input, 4),
                  exp::formatReal(b.compute, 4), exp::formatReal(b.output, 4),
                  exp::formatReal(overlap ? b.overlapped() : b.sequential(), 4)});
  }
  table.print(out);
  out << "(* = bottleneck interval)\n";
  return 0;
}

}  // namespace pipesched::cli::detail
