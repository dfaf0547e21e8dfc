// Private helpers shared by the pipesched CLI command implementations.
#pragma once

#include <fstream>
#include <functional>
#include <iosfwd>
#include <memory>
#include <string>
#include <vector>

#include "pipesched/cli/args.hpp"
#include "pipesched/heuristics/registry.hpp"
#include "pipesched/io/format.hpp"
#include "pipesched/io/json.hpp"
#include "pipesched/service/service.hpp"
#include "pipesched/stream/source.hpp"
#include "pipesched/workload/generator.hpp"

namespace pipesched::cli::detail {

/// Reads an on/off option: absent -> `fallback`; any value other than
/// "on"/"off" is a UsageError.
[[nodiscard]] bool parseOnOff(const ArgList& args, const std::string& name, bool fallback);

/// {entries, hits, misses, evictions, hit_ratio} as one JSON object — the
/// cache block shared by `batch --json`, `stats`, and the serve snapshot
/// emitter, so eviction counts surface identically everywhere.
void writeCacheStatsJson(io::JsonWriter& w, const service::CacheStats& stats);

/// "E1".."E4" (case-insensitive) -> ExperimentKind; UsageError otherwise.
[[nodiscard]] workload::ExperimentKind parseKind(const std::string& text);

/// "H1".."H6" -> the heuristic; "all" -> all six. UsageError otherwise.
[[nodiscard]] std::vector<std::unique_ptr<heuristics::MappingHeuristic>> parseHeuristics(
    const std::string& spec);

/// Loads --instance; UsageError when the option is missing.
[[nodiscard]] io::Instance loadInstance(const ArgList& args);

/// Loads --mapping and validates it against the instance.
[[nodiscard]] core::IntervalMapping loadMapping(const ArgList& args,
                                                const io::Instance& instance);

/// Writes via `body` either to the file named by --output/-o style option
/// `name` or, when absent, to `fallback`.
void writeToFileOr(const ArgList& args, const std::string& name, std::ostream& fallback,
                   const std::function<void(std::ostream&)>& body);

/// The service knobs shared by `batch` and `serve` (one reader, so the two
/// commands cannot drift): --threads/--serial, --cache-capacity/--no-cache,
/// --no-exact, --budget, --time-budget.
[[nodiscard]] service::ServiceConfig serviceConfigFromArgs(const ArgList& args);

/// The JSONL defaults shared by `batch`, `serve` and `stats` (one reader of
/// --points, --range and --overlap); every request source takes its sweep
/// and communication model from here. No deadline: `serve` adds its own.
[[nodiscard]] stream::JsonlDefaults jsonlDefaultsFromArgs(const ArgList& args);

/// Opens --stats-output FILE for the serve transports' snapshot lines; null
/// when the option is absent (the lines then go to stderr).
[[nodiscard]] std::unique_ptr<std::ofstream> openStatsOutput(const ArgList& args);

/// "default" -> {} (the service default), "all" -> the full catalog, else a
/// comma list of member ids. Validates against the registry: an unknown id
/// is a UsageError here, not a per-request failure later.
[[nodiscard]] std::vector<std::string> parsePortfolioMembers(const std::string& spec);

/// Test seam for serve's graceful shutdown: performs exactly what the
/// SIGINT/SIGTERM handler does (stop flag + listen-server wake), without
/// delivering a real signal. Safe from any thread.
void requestServeShutdown();

// Command entry points (one per subcommand).
int cmdBatch(const ArgList& args, std::ostream& out, std::ostream& err);
int cmdServe(const ArgList& args, std::ostream& out, std::ostream& err);
int cmdGenerate(const ArgList& args, std::ostream& out, std::ostream& err);
int cmdSolve(const ArgList& args, std::ostream& out, std::ostream& err);
int cmdEval(const ArgList& args, std::ostream& out, std::ostream& err);
int cmdSimulate(const ArgList& args, std::ostream& out, std::ostream& err);
int cmdPareto(const ArgList& args, std::ostream& out, std::ostream& err);
int cmdSweep(const ArgList& args, std::ostream& out, std::ostream& err);
int cmdTable1(const ArgList& args, std::ostream& out, std::ostream& err);
int cmdStats(const ArgList& args, std::ostream& out, std::ostream& err);

}  // namespace pipesched::cli::detail
