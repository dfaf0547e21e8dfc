// End-to-end tests of the CLI observability surface: the `stats` command's
// JSON snapshot, `batch --trace on` per-request breakdowns, and `serve`'s
// periodic --stats-interval snapshot lines — plus the contract that default
// output carries no trace/timing fields at all.
#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>
#include <sstream>
#include <vector>

#include "cli_test_util.hpp"
#include "pipesched/oracles/json_reader.hpp"

namespace pipesched::cli {
namespace {

using testutil::RunResult;
using testutil::run;
using testutil::tempPath;

std::string writeLines(const std::string& name, const std::vector<std::string>& lines) {
  const std::string path = tempPath(name);
  std::ofstream out(path);
  for (const std::string& line : lines) out << line << "\n";
  return path;
}

std::vector<io::JsonValue> parseOutputLines(const std::string& text) {
  std::vector<io::JsonValue> parsed;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    if (!line.empty() && line.front() == '{') parsed.push_back(io::parseJson(line));
  }
  return parsed;
}

/// Sum of the "stages" object of one "trace" value; also checks every slice
/// is non-negative.
double stagesSum(const io::JsonValue& trace) {
  double sum = 0;
  for (const auto& [stage, seconds] : trace.find("stages")->members) {
    EXPECT_GE(seconds.asNumber(), 0.0) << stage;
    sum += seconds.asNumber();
  }
  return sum;
}

/// total_seconds plus ULP-scale slack for the sum-vs-total invariant: the
/// trace accumulates total_seconds in code order while stagesSum re-adds the
/// same slices in JSON key order, so a trace whose slices tile the whole
/// request (e.g. a cache hit) can land one rounding step on either side of
/// the total. The slack is ~1e-12 relative — far below any real overlap.
double totalWithSlack(const io::JsonValue& trace) {
  const double total = trace.find("total_seconds")->asNumber();
  return total + 1e-12 * std::max(total, 1.0);
}

TEST(CliStats, EmptySnapshotListsTheMetricCatalog) {
  const RunResult r = run({"stats"});
  EXPECT_EQ(r.code, 0) << r.err;
  const io::JsonValue doc = io::parseJson(r.out);
  EXPECT_EQ(doc.find("requests")->asSize(), 0u);
  const io::JsonValue* metrics = doc.find("metrics");
  ASSERT_NE(metrics, nullptr);
  // Preregistered catalog: counters and stage histograms are enumerable
  // before any traffic, all at zero.
  const io::JsonValue* counters = metrics->find("counters");
  ASSERT_NE(counters, nullptr);
  ASSERT_NE(counters->find("service.requests_solved"), nullptr);
  EXPECT_EQ(counters->find("service.requests_solved")->asSize(), 0u);
  ASSERT_NE(counters->find("eval.delta.peeks"), nullptr);
  const io::JsonValue* histograms = metrics->find("histograms");
  ASSERT_NE(histograms, nullptr);
  for (const char* name : {"stage.parse", "stage.fingerprint", "stage.cache_lookup",
                           "stage.queue_wait", "stage.member_solve", "stage.merge",
                           "stage.emit", "stream.queue_depth", "portfolio.member_run"}) {
    const io::JsonValue* h = histograms->find(name);
    ASSERT_NE(h, nullptr) << name;
    EXPECT_EQ(h->find("count")->asSize(), 0u) << name;
  }
  // No traffic was pumped, so there is no cache block.
  EXPECT_EQ(doc.find("cache"), nullptr);
}

TEST(CliStats, InputTrafficPopulatesCountersHistogramsAndCaches) {
  const std::string input = writeLines(
      "stats_traffic.jsonl",
      {R"({"kind": "E2", "stages": 6, "processors": 4, "seed": 1})",
       R"({"kind": "E2", "stages": 6, "processors": 4, "seed": 2})"});
  const RunResult r = run({"stats", "--input", input, "--points", "4", "--serial"});
  EXPECT_EQ(r.code, 0) << r.err;
  const io::JsonValue doc = io::parseJson(r.out);
  EXPECT_EQ(doc.find("requests")->asSize(), 2u);
  const io::JsonValue* metrics = doc.find("metrics");
  EXPECT_EQ(metrics->find("counters")->find("service.requests_solved")->asSize(), 2u);
  // The portfolio ran, so the solve-stage histograms saw one record per
  // request and the member-run histogram one per member run.
  EXPECT_EQ(metrics->find("histograms")->find("stage.member_solve")->find("count")->asSize(),
            2u);
  EXPECT_GE(metrics->find("histograms")->find("portfolio.member_run")->find("count")->asSize(),
            2u);
  const io::JsonValue* hist = metrics->find("histograms")->find("stage.member_solve");
  EXPECT_GT(hist->find("sum")->asSize(), 0u);
  EXPECT_GT(hist->find("p50")->asNumber(), 0.0);
  // Eviction counts surface in both cache blocks (zero here, but present).
  ASSERT_NE(doc.find("cache"), nullptr);
  EXPECT_EQ(doc.find("cache")->find("misses")->asSize(), 2u);
  ASSERT_NE(doc.find("cache")->find("evictions"), nullptr);
  ASSERT_NE(doc.find("sub_cache"), nullptr);
  ASSERT_NE(doc.find("sub_cache")->find("evictions"), nullptr);
}

TEST(CliStats, RejectsBadOnOffValues) {
  const RunResult r = run({"batch", "--scenarios", "--points", "4", "--trace", "maybe"});
  EXPECT_EQ(r.code, 2);
  EXPECT_NE(r.err.find("--trace"), std::string::npos);
}

TEST(CliBatchTrace, JsonCarriesPerRequestBreakdownsWithinWallTime) {
  const RunResult r = run({"batch", "--kind", "E2", "--count", "2", "--stages", "6",
                           "--processors", "4", "--points", "4", "--serial", "--trace", "on",
                           "--json"});
  EXPECT_EQ(r.code, 0) << r.err;
  const io::JsonValue doc = io::parseJson(r.out);
  const io::JsonValue* requests = doc.find("requests");
  ASSERT_NE(requests, nullptr);
  ASSERT_EQ(requests->items.size(), 2u);
  for (const io::JsonValue& request : requests->items) {
    const io::JsonValue* trace = request.find("trace");
    ASSERT_NE(trace, nullptr);
    const double total = trace->find("total_seconds")->asNumber();
    EXPECT_GT(total, 0.0);
    // The acceptance criterion: stage slices are disjoint, so they sum to
    // at most the request's wall time.
    EXPECT_LE(stagesSum(*trace), totalWithSlack(*trace));
    const io::JsonValue* stages = trace->find("stages");
    ASSERT_NE(stages->find("fingerprint"), nullptr);
    ASSERT_NE(stages->find("cache_lookup"), nullptr);
    ASSERT_NE(stages->find("member_solve"), nullptr);
    ASSERT_NE(stages->find("merge"), nullptr);
    EXPECT_FALSE(trace->find("members")->items.empty());
  }
}

TEST(CliBatchTrace, DefaultOutputStaysTraceFree) {
  const RunResult r = run({"batch", "--kind", "E2", "--count", "1", "--stages", "5",
                           "--processors", "3", "--points", "4", "--serial", "--json"});
  EXPECT_EQ(r.code, 0) << r.err;
  EXPECT_EQ(r.out.find("\"trace\""), std::string::npos);
  const io::JsonValue doc = io::parseJson(r.out);
  EXPECT_EQ(doc.find("requests")->items[0].find("trace"), nullptr);
}

TEST(CliBatchTrace, StreamModeEmitsTracesAndEvictionCounts) {
  // A JSONL request source, so the parse stage is genuinely timed (generated
  // requests are built in memory and carry no parse slice).
  const std::string input = writeLines(
      "batch_stream_trace.jsonl",
      {R"({"kind": "E2", "stages": 5, "processors": 3, "seed": 1})",
       R"({"kind": "E2", "stages": 5, "processors": 3, "seed": 2})"});
  const RunResult r = run({"batch", "--requests", input, "--points", "4", "--stream",
                           "--threads", "2", "--trace", "on"});
  EXPECT_EQ(r.code, 0) << r.err;
  const std::vector<io::JsonValue> lines = parseOutputLines(r.out);
  ASSERT_EQ(lines.size(), 3u);  // 2 outcomes + 1 trailing stats line
  for (std::size_t i = 0; i < 2; ++i) {
    const io::JsonValue* trace = lines[i].find("trace");
    ASSERT_NE(trace, nullptr) << "line " << i;
    EXPECT_LE(stagesSum(*trace), totalWithSlack(*trace));
    // The stream path additionally times parse and queue wait.
    EXPECT_NE(trace->find("stages")->find("parse"), nullptr);
    EXPECT_NE(trace->find("stages")->find("queue_wait"), nullptr);
  }
  const io::JsonValue& stats = lines.back();
  ASSERT_NE(stats.find("cache"), nullptr);
  EXPECT_NE(stats.find("cache")->find("evictions"), nullptr);
  EXPECT_NE(stats.find("cache")->find("sub_evictions"), nullptr);
}

TEST(CliBatchTrace, TextReportShowsSubCacheEvictions) {
  const RunResult r = run({"batch", "--kind", "E1", "--count", "1", "--stages", "5",
                           "--processors", "3", "--points", "4", "--serial"});
  EXPECT_EQ(r.code, 0) << r.err;
  // The sub-results summary line now carries an eviction count.
  EXPECT_NE(r.out.find("eviction(s)"), std::string::npos) << r.out;
}

TEST(CliServeStats, IntervalEmitsSnapshotsWithCacheAndQueueState) {
  const std::string input = writeLines(
      "serve_stats.jsonl",
      {R"({"kind": "E2", "stages": 6, "processors": 4, "seed": 1})",
       R"({"kind": "E2", "stages": 6, "processors": 4, "seed": 1})",
       R"({"kind": "E3", "stages": 5, "processors": 3, "seed": 2})"});
  // One worker: requests are solved strictly in order, so the duplicate is a
  // deterministic cache hit (never an in-flight coalesce) and every popped
  // job records one queue-depth sample.
  const RunResult r = run({"serve", "--input", input, "--points", "4", "--threads", "1",
                           "--stats-interval", "0.01"});
  EXPECT_EQ(r.code, 0) << r.err;
  // Snapshot lines go to stderr; at least the final one is always emitted.
  const std::vector<io::JsonValue> snapshots = parseOutputLines(r.err);
  ASSERT_GE(snapshots.size(), 1u);
  const io::JsonValue& last = snapshots.back();
  EXPECT_EQ(last.find("type")->asString(), "stats");
  EXPECT_GE(last.find("uptime_seconds")->asNumber(), 0.0);
  const io::JsonValue* scheduler = last.find("scheduler");
  ASSERT_NE(scheduler, nullptr);
  EXPECT_EQ(scheduler->find("submitted")->asSize(), 3u);
  EXPECT_EQ(scheduler->find("completed")->asSize(), 3u);
  EXPECT_EQ(scheduler->find("in_flight")->asSize(), 0u);
  EXPECT_LE(scheduler->find("queue_depth")->asSize(),
            scheduler->find("queue_capacity")->asSize());
  // Cache + sub-cache blocks with hit/miss/eviction counts.
  EXPECT_EQ(last.find("cache")->find("hits")->asSize(), 1u);
  EXPECT_EQ(last.find("cache")->find("misses")->asSize(), 2u);
  ASSERT_NE(last.find("cache")->find("evictions"), nullptr);
  ASSERT_NE(last.find("sub_cache")->find("evictions"), nullptr);
  // The registry rode along: queue-depth histogram saw one record per job.
  const io::JsonValue* depth = last.find("metrics")->find("histograms")->find(
      "stream.queue_depth");
  ASSERT_NE(depth, nullptr);
  EXPECT_GE(depth->find("count")->asSize(), 3u);
  // stdout stays a pure outcome stream: 3 parseable lines, no "type":"stats".
  const std::vector<io::JsonValue> outcomes = parseOutputLines(r.out);
  ASSERT_EQ(outcomes.size(), 3u);
  for (const io::JsonValue& line : outcomes) {
    EXPECT_EQ(line.find("type"), nullptr);
    EXPECT_TRUE(line.find("ok")->asBool());
  }
  // The summary line surfaces eviction counts.
  EXPECT_NE(r.err.find("evictions="), std::string::npos);
}

TEST(CliServeStats, StatsOutputRedirectsSnapshotsToAFile) {
  const std::string input = writeLines(
      "serve_stats_file.jsonl",
      {R"({"kind": "E1", "stages": 4, "processors": 3, "seed": 9})"});
  const std::string statsPath = tempPath("serve_stats_out.jsonl");
  const RunResult r = run({"serve", "--input", input, "--points", "4", "--stats-interval",
                           "5", "--stats-output", statsPath});
  EXPECT_EQ(r.code, 0) << r.err;
  // Interval longer than the run: exactly the final snapshot, in the file.
  std::ifstream file(statsPath);
  std::stringstream buffer;
  buffer << file.rdbuf();
  const std::vector<io::JsonValue> snapshots = parseOutputLines(buffer.str());
  ASSERT_EQ(snapshots.size(), 1u);
  EXPECT_EQ(snapshots[0].find("scheduler")->find("completed")->asSize(), 1u);
  // Stderr keeps only the human summary line.
  EXPECT_EQ(r.err.find("\"type\""), std::string::npos);
}

TEST(CliServeStats, TraceLinesCarryQueueWaitAndParse) {
  const std::string input = writeLines(
      "serve_trace.jsonl",
      {R"({"kind": "E2", "stages": 5, "processors": 3, "seed": 4})",
       R"({"kind": "E2", "stages": 5, "processors": 3, "seed": 4})"});
  // One worker: the duplicate request is a deterministic cache hit.
  const RunResult r = run({"serve", "--input", input, "--points", "4", "--threads", "1",
                           "--trace", "on"});
  EXPECT_EQ(r.code, 0) << r.err;
  const std::vector<io::JsonValue> lines = parseOutputLines(r.out);
  ASSERT_EQ(lines.size(), 2u);
  bool sawCacheHitTrace = false;
  for (const io::JsonValue& line : lines) {
    const io::JsonValue* trace = line.find("trace");
    ASSERT_NE(trace, nullptr);
    EXPECT_LE(stagesSum(*trace), totalWithSlack(*trace));
    EXPECT_NE(trace->find("stages")->find("parse"), nullptr);
    EXPECT_NE(trace->find("stages")->find("queue_wait"), nullptr);
    if (line.find("from_cache")->asBool()) {
      // Cache hits skip the solve: no member_solve/merge slices, no members.
      sawCacheHitTrace = true;
      EXPECT_EQ(trace->find("stages")->find("member_solve"), nullptr);
      EXPECT_TRUE(trace->find("members")->items.empty());
    }
  }
  EXPECT_TRUE(sawCacheHitTrace);
}

}  // namespace
}  // namespace pipesched::cli
