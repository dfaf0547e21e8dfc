// End-to-end tests of `pipesched serve`: the JSONL request/response loop,
// ordered incremental output, graceful malformed-line handling, and front
// parity with the batch command on the same instance file.
#include <gtest/gtest.h>

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
    if (!line.empty()) parsed.push_back(io::parseJson(line));
  }
  return parsed;
}

TEST(CliServe, SolvesAJsonlStreamInInputOrder) {
  const std::string input = writeLines(
      "serve_basic.jsonl",
      {R"({"kind": "E2", "stages": 6, "processors": 4, "seed": 0})",
       R"({"kind": "E1", "stages": 5, "processors": 3, "seed": 1, "name": "second"})",
       R"({"kind": "E4", "stages": 4, "processors": 3, "seed": 2})"});
  const RunResult r = run({"serve", "--input", input, "--points", "4"});
  EXPECT_EQ(r.code, 0) << r.err;
  const std::vector<io::JsonValue> lines = parseOutputLines(r.out);
  ASSERT_EQ(lines.size(), 3u);
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(lines[i].find("index")->asSize(), i);
    EXPECT_EQ(lines[i].find("line")->asSize(), i + 1);  // input-line correlation
    EXPECT_TRUE(lines[i].find("ok")->asBool());
    EXPECT_FALSE(lines[i].find("front")->items.empty());
  }
  EXPECT_EQ(lines[1].find("name")->asString(), "second");
  EXPECT_NE(r.err.find("3 request(s)"), std::string::npos);
}

TEST(CliServe, MalformedLinesAreReportedAndTheRestStillSolve) {
  const std::string input = writeLines(
      "serve_bad.jsonl", {R"({"kind": "E1", "stages": 4, "processors": 3, "seed": 5})",
                          "this is not json",
                          R"({"kind": "E1", "stages": 4, "processors": 3, "seed": 6})"});
  const RunResult r = run({"serve", "--input", input, "--points", "4"});
  EXPECT_EQ(r.code, 1);  // parse errors fail the exit code...
  const std::vector<io::JsonValue> lines = parseOutputLines(r.out);
  ASSERT_EQ(lines.size(), 3u);  // ...but every line got an answer
  std::size_t errors = 0;
  std::size_t solved = 0;
  std::vector<std::size_t> solvedLines;
  for (const io::JsonValue& line : lines) {
    if (line.find("ok")->asBool()) {
      ++solved;
      solvedLines.push_back(line.find("line")->asSize());
    } else {
      ++errors;
      EXPECT_EQ(line.find("line")->asSize(), 2u);
      const std::string message = line.find("error")->asString();
      EXPECT_FALSE(message.empty());
      // No stale inner "line 1:" prefix — line 2 is the only line that counts.
      EXPECT_EQ(message.rfind("line 1:", 0), std::string::npos) << message;
    }
  }
  EXPECT_EQ(solved, 2u);
  EXPECT_EQ(errors, 1u);
  // Outcomes point at their true input lines even across the malformed gap.
  EXPECT_EQ(solvedLines, (std::vector<std::size_t>{1, 3}));
  EXPECT_NE(r.err.find("1 parse error(s)"), std::string::npos);
}

TEST(CliServe, FrontsMatchTheBatchCommandOnTheSameFile) {
  const std::string instance = tempPath("serve_parity.psi");
  ASSERT_EQ(run({"generate", "--kind", "E2", "--stages", "6", "--processors", "4", "--seed",
                 "9", "--name", "parity", "--output", instance})
                .code,
            0);
  const std::string input = writeLines("serve_parity.jsonl", {"{\"file\": \"" + instance + "\"}"});

  const RunResult served = run({"serve", "--input", input, "--points", "6", "--serial"});
  ASSERT_EQ(served.code, 0) << served.err;
  const RunResult batched = run({"batch", instance, "--points", "6", "--serial", "--json"});
  ASSERT_EQ(batched.code, 0) << batched.err;

  const std::vector<io::JsonValue> lines = parseOutputLines(served.out);
  ASSERT_EQ(lines.size(), 1u);
  const io::JsonValue batchDoc = io::parseJson(batched.out);
  const io::JsonValue& batchRequest = batchDoc.find("requests")->items.at(0);
  // Same fingerprint (identical model content) and identical front geometry.
  EXPECT_EQ(lines[0].find("fingerprint")->asString(),
            batchRequest.find("fingerprint")->asString());
  const auto& streamFront = lines[0].find("front")->items;
  const auto& batchFront = batchRequest.find("front")->items;
  ASSERT_EQ(streamFront.size(), batchFront.size());
  for (std::size_t i = 0; i < streamFront.size(); ++i) {
    EXPECT_EQ(streamFront[i].find("period")->asNumber(),
              batchFront[i].find("period")->asNumber());
    EXPECT_EQ(streamFront[i].find("latency")->asNumber(),
              batchFront[i].find("latency")->asNumber());
  }
}

TEST(CliServe, MissingInputFileIsARuntimeError) {
  const RunResult r = run({"serve", "--input", tempPath("serve_nope.jsonl")});
  EXPECT_EQ(r.code, 1);
  EXPECT_NE(r.err.find("cannot open input"), std::string::npos);
}

TEST(CliServe, UnknownOptionIsAUsageError) {
  const RunResult r = run({"serve", "--wat", "7"});
  EXPECT_EQ(r.code, 2);
}

TEST(CliServe, SerialAndThreadsTogetherAreAcceptedWithSerialWinning) {
  // --serial must override --threads, not turn it into an "unknown option"
  // error (batch and serve share the config reader, so both behave alike).
  const std::string input = writeLines(
      "serve_serial.jsonl", {R"({"kind": "E1", "stages": 4, "processors": 3, "seed": 1})"});
  const RunResult r = run({"serve", "--input", input, "--points", "4", "--serial",
                           "--threads", "4"});
  EXPECT_EQ(r.code, 0) << r.err;
  EXPECT_NE(r.err.find("1 request(s)"), std::string::npos);
}

TEST(CliBatchStream, EmitsJsonlPlusStatsAndMatchesSerialFronts) {
  const std::string instance = tempPath("stream_mode.psi");
  ASSERT_EQ(run({"generate", "--kind", "E3", "--stages", "6", "--processors", "4", "--seed",
                 "13", "--output", instance})
                .code,
            0);
  const RunResult streamed = run({"batch", instance, instance, "--stream", "--points", "4",
                                  "--threads", "2", "--queue-capacity", "2"});
  EXPECT_EQ(streamed.code, 0) << streamed.err;
  const std::vector<io::JsonValue> lines = parseOutputLines(streamed.out);
  ASSERT_EQ(lines.size(), 3u);  // two outcomes + the stats trailer
  EXPECT_TRUE(lines[0].find("ok")->asBool());
  EXPECT_TRUE(lines[1].find("ok")->asBool());
  const io::JsonValue* stats = lines[2].find("stats");
  ASSERT_NE(stats, nullptr);
  EXPECT_EQ(stats->find("requests")->asSize(), 2u);
  EXPECT_EQ(stats->find("failed")->asSize(), 0u);
  // The duplicate was shared (coalesced or cache hit), never solved twice...
  EXPECT_EQ(stats->find("solved")->asSize(), 1u);
  // ...and both outcome lines carry the same front.
  EXPECT_EQ(lines[0].find("front")->items.size(), lines[1].find("front")->items.size());
}

TEST(CliBatchStream, RepeatPassesAreServedByTheCache) {
  const RunResult r = run({"batch", "--kind", "E1", "--count", "2", "--stages", "5",
                           "--processors", "3", "--points", "4", "--stream", "--repeat", "3",
                           "--serial"});
  EXPECT_EQ(r.code, 0) << r.err;
  const std::vector<io::JsonValue> lines = parseOutputLines(r.out);
  ASSERT_EQ(lines.size(), 7u);  // 3 passes x 2 outcomes + stats
  for (std::size_t i = 0; i < 6; ++i) {
    // Indices stay globally increasing across passes — consumers correlate
    // outcome lines by them.
    EXPECT_EQ(lines[i].find("index")->asSize(), i);
  }
  const io::JsonValue* stats = lines[6].find("stats");
  ASSERT_NE(stats, nullptr);
  EXPECT_EQ(stats->find("requests")->asSize(), 6u);
  EXPECT_EQ(stats->find("solved")->asSize(), 2u);
  EXPECT_EQ(stats->find("cache_hits")->asSize(), 4u);
}

TEST(CliServe, SolverRowsCarryPerMemberContributionStats) {
  const std::string input = writeLines(
      "serve_members.jsonl",
      {R"({"kind": "E2", "stages": 6, "processors": 4, "seed": 9})"});
  const RunResult r = run({"serve", "--input", input, "--points", "4", "--serial"});
  EXPECT_EQ(r.code, 0) << r.err;
  const std::vector<io::JsonValue> lines = parseOutputLines(r.out);
  ASSERT_GE(lines.size(), 1u);
  const io::JsonValue* solvers = lines[0].find("solvers");
  ASSERT_NE(solvers, nullptr);
  ASSERT_FALSE(solvers->items.empty());
  for (const io::JsonValue& solver : solvers->items) {
    ASSERT_NE(solver.find("units"), nullptr);
    ASSERT_NE(solver.find("novel"), nullptr);
    ASSERT_NE(solver.find("merged"), nullptr);
    ASSERT_NE(solver.find("skipped"), nullptr);
    ASSERT_NE(solver.find("dropped"), nullptr);
  }
  // The 4-point grid gives every sweeping member 4 units.
  EXPECT_EQ(solvers->items.front().find("units")->asSize(), 4u);
}

TEST(CliServe, GarbageAndValidLinesUnderWorkersNeverCorruptTheJsonlStream) {
  // Parse-error lines are written from the source-pull side while outcome
  // lines come from the sink side; both must go through the one guarded line
  // writer — every output line must parse as a complete JSON object, with
  // garbage and solves interleaved and workers >= 2.
  std::vector<std::string> lines;
  std::size_t valid = 0;
  std::size_t garbage = 0;
  for (std::size_t i = 0; i < 30; ++i) {
    if (i % 3 == 1) {
      lines.push_back("{\"broken\": " + std::to_string(i));  // truncated JSON
      ++garbage;
    } else if (i % 7 == 3) {
      lines.push_back("not json at all ###" + std::to_string(i));
      ++garbage;
    } else {
      lines.push_back(R"({"kind": "E1", "stages": 4, "processors": 3, "seed": )" +
                      std::to_string(i % 5) + "}");
      ++valid;
    }
  }
  const std::string input = writeLines("serve_stress.jsonl", lines);
  const RunResult r =
      run({"serve", "--input", input, "--points", "3", "--threads", "2",
           "--queue-capacity", "4"});
  EXPECT_EQ(r.code, 1);  // parse errors fail the exit code
  // parseOutputLines throws on any torn/interleaved line.
  const std::vector<io::JsonValue> parsed = parseOutputLines(r.out);
  ASSERT_EQ(parsed.size(), valid + garbage);
  std::size_t ok = 0;
  std::size_t failed = 0;
  for (const io::JsonValue& line : parsed) {
    ASSERT_NE(line.find("ok"), nullptr);
    line.find("ok")->asBool() ? ++ok : ++failed;
  }
  EXPECT_EQ(ok, valid);
  EXPECT_EQ(failed, garbage);
}

TEST(CliServe, WarmSweepsShareSubResultsAcrossRequests) {
  // The same instance swept at 5 then 9 points: the second request's
  // even-index thresholds are already solved, so the serve loop reports
  // sub-result hits — and none with --share-subresults off.
  const std::string input = writeLines(
      "serve_share.jsonl",
      {R"({"kind": "E2", "stages": 10, "processors": 6, "seed": 3, "points": 5})",
       R"({"kind": "E2", "stages": 10, "processors": 6, "seed": 3, "points": 9})"});
  const RunResult shared = run({"serve", "--input", input, "--serial"});
  EXPECT_EQ(shared.code, 0) << shared.err;
  EXPECT_EQ(shared.err.find("sub_hits=0,"), std::string::npos) << shared.err;
  EXPECT_NE(shared.err.find("sub_hits="), std::string::npos) << shared.err;
  const RunResult cold =
      run({"serve", "--input", input, "--serial", "--share-subresults", "off"});
  EXPECT_EQ(cold.code, 0) << cold.err;
  EXPECT_NE(cold.err.find("sub_hits=0,"), std::string::npos) << cold.err;
  // The fronts themselves are byte-identical either way (only provenance
  // counters may differ) — the differential guarantee, at the CLI level.
  const auto fronts = [](const std::string& text) {
    std::vector<std::string> rendered;
    for (const io::JsonValue& line : parseOutputLines(text)) {
      std::string s;
      for (const io::JsonValue& p : line.find("front")->items) {
        s += std::to_string(p.find("period")->asNumber()) + "," +
             std::to_string(p.find("latency")->asNumber()) + ";";
      }
      rendered.push_back(s);
    }
    return rendered;
  };
  EXPECT_EQ(fronts(shared.out), fronts(cold.out));
}

TEST(CliServe, ShareSubresultsRejectsBadValues) {
  const RunResult r = run({"serve", "--share-subresults", "maybe"});
  EXPECT_EQ(r.code, 2);
  EXPECT_NE(r.err.find("share-subresults"), std::string::npos);
}

TEST(CliServe, PortfolioMembersFlagReachesTheServeLoop) {
  const std::string input = writeLines(
      "serve_members_flag.jsonl",
      {R"({"kind": "E1", "stages": 6, "processors": 3, "seed": 4})"});
  const RunResult r = run({"serve", "--input", input, "--points", "4", "--serial",
                           "--portfolio-members", "H1,c2c", "--no-exact"});
  EXPECT_EQ(r.code, 0) << r.err;
  const std::vector<io::JsonValue> lines = parseOutputLines(r.out);
  ASSERT_GE(lines.size(), 1u);
  const io::JsonValue* solvers = lines[0].find("solvers");
  ASSERT_NE(solvers, nullptr);
  ASSERT_EQ(solvers->items.size(), 2u);
  EXPECT_EQ(solvers->items[0].find("solver")->asString(), "H1-SpMonoP");
  EXPECT_EQ(solvers->items[1].find("solver")->asString(), "c2c-dp");
}

}  // namespace
}  // namespace pipesched::cli
