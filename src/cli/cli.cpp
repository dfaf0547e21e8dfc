#include "pipesched/cli/cli.hpp"

#include <algorithm>
#include <fstream>
#include <map>
#include <ostream>
#include <thread>

#include "cli_internal.hpp"

namespace pipesched::cli {

namespace detail {

bool parseOnOff(const ArgList& args, const std::string& name, bool fallback) {
  const std::string value = args.getOr(name, fallback ? "on" : "off");
  if (value != "on" && value != "off") {
    throw UsageError("option --" + name + " must be 'on' or 'off', not '" + value + "'");
  }
  return value == "on";
}

void writeCacheStatsJson(io::JsonWriter& w, const service::CacheStats& stats) {
  w.beginObject();
  w.kv("entries", stats.entries);
  w.kv("hits", static_cast<std::size_t>(stats.hits));
  w.kv("misses", static_cast<std::size_t>(stats.misses));
  w.kv("evictions", static_cast<std::size_t>(stats.evictions));
  w.kv("hit_ratio", stats.hitRatio());
  w.endObject();
}

workload::ExperimentKind parseKind(const std::string& text) {
  if (const auto kind = workload::experimentKindFromName(text)) return *kind;
  throw UsageError("unknown experiment kind '" + text + "' (expected E1..E4)");
}

std::vector<std::unique_ptr<heuristics::MappingHeuristic>> parseHeuristics(
    const std::string& spec) {
  if (spec == "all") return heuristics::makeAllHeuristics();
  static const std::map<std::string, heuristics::HeuristicId> byName = {
      {"H1", heuristics::HeuristicId::kH1SpMonoP},
      {"H2", heuristics::HeuristicId::kH2ExploThreeMono},
      {"H3", heuristics::HeuristicId::kH3ExploThreeBi},
      {"H4", heuristics::HeuristicId::kH4SpBiP},
      {"H5", heuristics::HeuristicId::kH5SpMonoL},
      {"H6", heuristics::HeuristicId::kH6SpBiL},
  };
  std::vector<std::unique_ptr<heuristics::MappingHeuristic>> result;
  std::size_t start = 0;
  while (start <= spec.size()) {
    const std::size_t comma = spec.find(',', start);
    const std::string token =
        spec.substr(start, comma == std::string::npos ? std::string::npos : comma - start);
    const auto it = byName.find(token);
    if (it == byName.end()) {
      throw UsageError("unknown heuristic '" + token + "' (expected H1..H6 or all)");
    }
    result.push_back(heuristics::makeHeuristic(it->second));
    if (comma == std::string::npos) break;
    start = comma + 1;
  }
  return result;
}

io::Instance loadInstance(const ArgList& args) {
  return io::readInstanceFromFile(args.require("instance"));
}

core::IntervalMapping loadMapping(const ArgList& args, const io::Instance& instance) {
  core::IntervalMapping mapping = io::readMappingFromFile(
      args.require("mapping"), instance.pipeline.stageCount());
  mapping.validate(instance.pipeline.stageCount(), instance.platform.processorCount());
  return mapping;
}

void writeToFileOr(const ArgList& args, const std::string& name, std::ostream& fallback,
                   const std::function<void(std::ostream&)>& body) {
  if (const auto path = args.get(name)) {
    std::ofstream file(*path);
    if (!file) throw std::runtime_error("cannot open for writing: " + *path);
    body(file);
  } else {
    body(fallback);
  }
}

service::ServiceConfig serviceConfigFromArgs(const ArgList& args) {
  service::ServiceConfig config;
  // Read --threads unconditionally so --serial --threads N is accepted (and
  // --serial wins), identically in every command using this helper.
  config.threads = args.getSize(
      "threads", std::max<std::size_t>(1, std::thread::hardware_concurrency()));
  if (args.has("serial")) config.threads = 0;
  config.cacheCapacity = args.has("no-cache") ? 0 : args.getSize("cache-capacity", 1024);
  if (!parseOnOff(args, "share-subresults", true)) config.subCacheCapacity = 0;
  config.portfolio.useExact = !args.has("no-exact");
  config.portfolio.budget.maxRunsPerSolver = args.getU64("budget", UINT64_MAX);
  config.portfolio.budget.timeBudgetMs = args.getReal("time-budget", 0);
  if (const auto members = args.get("portfolio-members")) {
    config.portfolio.members = parsePortfolioMembers(*members);
  }
  config.portfolio.dropAfter = args.getSize("drop-after", 0);
  return config;
}

stream::JsonlDefaults jsonlDefaultsFromArgs(const ArgList& args) {
  stream::JsonlDefaults defaults;
  defaults.sweep = service::SweepSpec{args.getSize("points", 24), args.getReal("range", 3)};
  defaults.model =
      args.has("overlap") ? core::CommModel::kOverlapped : core::CommModel::kSequential;
  return defaults;
}

std::unique_ptr<std::ofstream> openStatsOutput(const ArgList& args) {
  const auto path = args.get("stats-output");
  if (!path) return nullptr;
  auto file = std::make_unique<std::ofstream>(*path);
  if (!*file) throw std::runtime_error("cannot open stats output: " + *path);
  return file;
}

std::vector<std::string> parsePortfolioMembers(const std::string& spec) {
  if (spec == "default") return {};  // empty = the service default (H1..H6 + exact)
  std::vector<std::string> ids;
  if (spec == "all") {
    ids = service::allPortfolioMembers();
  } else {
    std::size_t start = 0;
    while (start <= spec.size()) {
      const std::size_t comma = spec.find(',', start);
      ids.push_back(
          spec.substr(start, comma == std::string::npos ? std::string::npos : comma - start));
      if (comma == std::string::npos) break;
      start = comma + 1;
    }
  }
  // Validate now: an unknown id should be a usage error on the command line,
  // not a per-request solver failure deep inside the batch.
  service::PortfolioConfig probe;
  probe.members = ids;
  try {
    (void)service::makePortfolioMembers(probe);
  } catch (const ModelError& e) {
    throw UsageError(e.what());
  }
  return ids;
}

}  // namespace detail

std::string usageText() {
  return R"(pipesched — bi-criteria mapping of pipeline workflows (CLUSTER'07 reproduction)

usage: pipesched <command> [options]

commands:
  batch      portfolio-solve many instances with a result cache, the solves
             fanned out across --threads
             [FILE|DIR...] [--requests FILE.jsonl] [--scenarios]
             [--kind E1..E4 [--count N] [--stages N] [--processors P] [--seed S]]
             [--points N] [--range X] [--overlap]
             [--threads N | --serial] [--cache-capacity N | --no-cache]
             [--share-subresults on|off]  # cross-request sub-result memoization
                            # (instance-keyed; fronts identical either way)
             [--no-exact] [--budget RUNS] [--time-budget MS] [--json]
             [--portfolio-members default|all|ID,ID,...]  # H1..H6, ls:HN,
                            # sa:HN (refiners), c2c, c2c:ls, exact
             [--drop-after K]  # drop a member after K stale grid points
             [--repeat N]   # submit the batch N times; later passes hit the cache
             [--stream [--queue-capacity N]]  # async engine: lazy ingest,
                            # incremental JSONL output, bounded memory
             [--trace on|off]    # per-request "trace" stage breakdowns in the
                            # JSON/JSONL output (implies --metrics on)
             [--metrics on|off]  # record registry metrics during the run
  serve      streaming loop: JSONL requests in (stdin or --input FILE), one
             JSONL outcome per line out, answered in input order as completed
             [--input FILE] [--threads N | --serial] [--queue-capacity N]
             [--points N] [--range X] [--overlap] [--cache-capacity N |
             --no-cache] [--share-subresults on|off]
             [--no-exact] [--budget RUNS] [--time-budget MS]
             [--portfolio-members default|all|ID,ID,...] [--drop-after K]
             [--trace on|off]  # attach "trace" stage breakdowns to outcome lines
             [--metrics on|off] [--stats-interval SECS [--stats-output FILE]]
             # --stats-interval emits one JSONL observability snapshot per
             # interval (stderr unless --stats-output): scheduler queue/in-flight
             # state, cache + sub-cache hit/miss/eviction counts, metric registry
             # request lines: {"file": "app.psi"} | {"text": "pipesched-instance v1..."}
             #   | {"kind": "E2", "stages": 8, "processors": 5, "seed": 7}
             #   (+ optional "name", "points", "range", "overlap", "deadline_ms")
             [--deadline-ms MS]  # default per-request deadline for lines without
             # their own "deadline_ms" (0 = none). An expired request answers
             # {"ok": false, "timed_out": true, ...}; a request whose deadline
             # lands mid-solve returns the partial front flagged "degraded".
             [--fault-spec SPEC]  # arm fault injection (see README Resilience;
             # also via the PIPESCHED_FAULT_SPEC environment variable), e.g.
             # 'net.read=p:0.05;member.H3=count:2;sched.submit=latency:20,noerror'
             [--listen HOST:PORT [--port-file FILE] [--max-connections N]
              [--request-timeout-ms MS] [--idle-timeout-ms MS]]
             # network mode: multi-client HTTP/1.1 server (port 0 = ephemeral;
             # --port-file publishes "HOST PORT" once bound, removed on drain).
             # POST /solve takes the JSONL bodies above (responses byte-identical
             # to stdio mode, 503 + net.shed_total when the queue is saturated;
             # X-Deadline-Ms sets a per-POST default deadline, 504 when every
             # line times out); GET /stats, /healthz, /metrics (Prometheus)
             # expose the observability plane. Stalled mid-request connections
             # get 408 after --request-timeout-ms; idle keep-alive connections
             # close after --idle-timeout-ms (0 disables either).
             # SIGINT/SIGTERM drain gracefully in both modes and exit 0.
  generate   make a random instance file
             --kind E1..E4 --stages N --processors P [--seed S] [--name TEXT]
             [--hetero] [--bw-min X --bw-max Y] [--output FILE]
  solve      run mapping heuristics on an instance
             --instance FILE (--period X | --latency X) [--heuristic H1..H6|all]
             [--refine] [--baselines] [--deal] [--mapping-out FILE] [--json]
  eval       evaluate a mapping file against an instance
             --instance FILE --mapping FILE [--overlap] [--json]
  simulate   discrete-event simulation of a mapping
             --instance FILE --mapping FILE [--datasets N] [--warmup N]
             [--release X] [--jitter A] [--jitter-transfer A] [--seed S]
             [--trials N] [--gantt] [--gantt-width N] [--trace-csv FILE]
             [--deal [--discipline ordered|substreams]]  # replicated mapping
  pareto     heuristic Pareto front of one instance
             --instance FILE [--points N] [--range X] [--exact]
  sweep      regenerate one panel of paper Figures 2-7
             --kind E1..E4 --stages N --processors P [--pairs N] [--points N]
             [--seed S] [--overlap] [--csv]
  table1     regenerate one experiment column block of paper Table 1
             --kind E1..E4 [--processors P] [--pairs N] [--stages N,N,...]
  stats      observability snapshot as pretty JSON: the full metric registry
             (counters, gauges, latency histograms with p50/p90/p99), plus
             cache stats when traffic was pumped through the service
             [--input FILE.jsonl]  # solve these requests first, then snapshot
             [--format json|prometheus]  # prometheus = the same text exposition
             #   serve --listen answers on GET /metrics
             [--points N] [--range X] [--overlap] [service knobs as in serve]
  help       print this text

files use the pipesched-instance / pipesched-mapping v1 text formats
(see include/pipesched/io/format.hpp).
)";
}

int runCli(const std::vector<std::string>& args, std::ostream& out, std::ostream& err) {
  if (args.empty()) {
    err << usageText();
    return 2;
  }
  const std::string& command = args.front();
  const std::vector<std::string> rest(args.begin() + 1, args.end());

  using Handler = int (*)(const ArgList&, std::ostream&, std::ostream&);
  struct Spec {
    Handler handler;
    std::vector<std::string> flags;
  };
  static const std::map<std::string, Spec> commands = {
      {"batch",
       {detail::cmdBatch,
        {"scenarios", "serial", "no-cache", "no-exact", "overlap", "json", "stream"}}},
      {"serve",
       {detail::cmdServe, {"serial", "no-cache", "no-exact", "overlap"}}},
      {"generate", {detail::cmdGenerate, {"hetero"}}},
      {"solve", {detail::cmdSolve, {"refine", "baselines", "deal", "json"}}},
      {"eval", {detail::cmdEval, {"overlap", "json"}}},
      {"simulate", {detail::cmdSimulate, {"gantt", "deal"}}},
      {"pareto", {detail::cmdPareto, {"exact"}}},
      {"sweep", {detail::cmdSweep, {"overlap", "csv"}}},
      {"table1", {detail::cmdTable1, {}}},
      {"stats", {detail::cmdStats, {"serial", "no-cache", "no-exact", "overlap"}}},
  };

  if (command == "help" || command == "--help" || command == "-h") {
    out << usageText();
    return 0;
  }
  const auto it = commands.find(command);
  if (it == commands.end()) {
    err << "pipesched: unknown command '" << command << "'\n\n" << usageText();
    return 2;
  }
  try {
    const ArgList parsed(rest, it->second.flags);
    const int code = it->second.handler(parsed, out, err);
    parsed.assertConsumed();
    return code;
  } catch (const UsageError& e) {
    err << "pipesched " << command << ": " << e.what() << "\n";
    return 2;
  } catch (const std::exception& e) {
    err << "pipesched " << command << ": " << e.what() << "\n";
    return 1;
  } catch (...) {
    err << "pipesched " << command << ": unknown error\n";
    return 1;
  }
}

int runCli(int argc, const char* const* argv, std::ostream& out, std::ostream& err) {
  std::vector<std::string> args;
  for (int i = 1; i < argc; ++i) args.emplace_back(argv[i]);
  return runCli(args, out, err);
}

}  // namespace pipesched::cli
