// Sources and sinks: lazy file ingestion, directory expansion, generator
// determinism and batch-naming parity, scenario and chain composition, the
// JSONL request protocol (file/text/kind lines, overrides, malformed-line
// handling), and the JSONL sink's line-per-outcome round-trip.
#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "pipesched/io/format.hpp"
#include "pipesched/oracles/json_reader.hpp"
#include "pipesched/service/fingerprint.hpp"
#include "pipesched/stream/sink.hpp"
#include "pipesched/stream/source.hpp"

namespace pipesched::stream {
namespace {

std::string tempPath(const std::string& name) {
  static const std::string prefix =
      ::testing::TempDir() + "/pid" + std::to_string(::getpid()) + "_stream_";
  return prefix + name;
}

io::Instance makeInstance(std::uint64_t seed, const std::string& name) {
  workload::Rng rng(seed);
  workload::InstancePair pair =
      workload::randomInstance(workload::ExperimentKind::kE1BalancedHomComm, 5, 3, rng);
  return io::Instance{std::move(pair.pipeline), std::move(pair.platform), name};
}

std::string writeInstanceFile(const std::string& fileName, std::uint64_t seed,
                              const std::string& instanceName) {
  const std::string path = tempPath(fileName);
  io::writeInstanceToFile(path, makeInstance(seed, instanceName));
  return path;
}

TEST(FileListSource, ReadsOneFilePerPullAndFallsBackToThePathName) {
  const std::string named = writeInstanceFile("named.psi", 1, "has-a-name");
  const std::string anonymous = writeInstanceFile("anon.psi", 2, "");
  FileListSource source({named, anonymous}, service::SweepSpec{4, 3},
                        core::CommModel::kSequential);
  const std::optional<service::Request> first = source.next();
  ASSERT_TRUE(first.has_value());
  EXPECT_EQ(first->name, "has-a-name");
  const std::optional<service::Request> second = source.next();
  ASSERT_TRUE(second.has_value());
  EXPECT_EQ(second->name, anonymous);  // no name line: the path identifies it
  EXPECT_FALSE(source.next().has_value());
}

TEST(FileListSource, MissingFileThrowsAtItsPullNotAtConstruction) {
  const std::string good = writeInstanceFile("good.psi", 3, "good");
  FileListSource source({good, tempPath("nope.psi")}, service::SweepSpec{4, 3},
                        core::CommModel::kSequential);
  EXPECT_TRUE(source.next().has_value());  // laziness: the good file still served
  EXPECT_THROW((void)source.next(), std::exception);
}

TEST(ExpandInstancePaths, DirectoriesContributeTheirPsiFilesSorted) {
  namespace fs = std::filesystem;
  const std::string dir = tempPath("instdir");
  fs::create_directories(dir);
  io::writeInstanceToFile(dir + "/b.psi", makeInstance(4, "b"));
  io::writeInstanceToFile(dir + "/a.psi", makeInstance(5, "a"));
  std::ofstream(dir + "/notes.txt") << "not an instance\n";
  const std::string loose = writeInstanceFile("loose.psi", 6, "loose");

  const std::vector<std::string> expanded = expandInstancePaths({loose, dir});
  ASSERT_EQ(expanded.size(), 3u);
  EXPECT_EQ(expanded[0], loose);  // plain files pass through in place
  EXPECT_EQ(expanded[1], dir + "/a.psi");
  EXPECT_EQ(expanded[2], dir + "/b.psi");
}

TEST(ExpandInstancePaths, EmptyDirectoryIsLoud) {
  namespace fs = std::filesystem;
  const std::string dir = tempPath("emptydir");
  fs::create_directories(dir);
  EXPECT_THROW((void)expandInstancePaths({dir}), std::runtime_error);
}

TEST(GeneratorSource, IsDeterministicAndMatchesBatchNaming) {
  GeneratorSource::Spec spec;
  spec.kind = workload::ExperimentKind::kE3LargeComputations;
  spec.count = 3;
  spec.stages = 6;
  spec.processors = 4;
  spec.seed = 42;
  spec.sweep = service::SweepSpec{4, 3};

  GeneratorSource a(spec);
  GeneratorSource b(spec);
  for (std::size_t i = 0; i < 3; ++i) {
    const std::optional<service::Request> ra = a.next();
    const std::optional<service::Request> rb = b.next();
    ASSERT_TRUE(ra.has_value());
    ASSERT_TRUE(rb.has_value());
    EXPECT_EQ(ra->name, "E3-n6p4-" + std::to_string(i));  // the `batch` CLI scheme
    EXPECT_EQ(service::requestIdentity(*ra).key, service::requestIdentity(*rb).key);
  }
  EXPECT_FALSE(a.next().has_value());
}

TEST(ScenarioSource, YieldsEveryNamedScenarioOnTheLabCluster) {
  ScenarioSource source(service::SweepSpec{4, 3}, core::CommModel::kSequential);
  std::vector<std::string> names;
  while (const std::optional<service::Request> request = source.next()) {
    names.push_back(request->name);
  }
  ASSERT_EQ(names.size(), workload::allScenarios().size());
  EXPECT_NE(std::find(names.begin(), names.end(), "image-processing"), names.end());
}

TEST(ChainSource, ConcatenatesPartsInOrder) {
  std::vector<std::unique_ptr<Source>> parts;
  GeneratorSource::Spec spec;
  spec.kind = workload::ExperimentKind::kE1BalancedHomComm;
  spec.count = 2;
  spec.stages = 4;
  spec.processors = 3;
  parts.push_back(std::make_unique<GeneratorSource>(spec));
  spec.kind = workload::ExperimentKind::kE4SmallComputations;
  spec.count = 1;
  parts.push_back(std::make_unique<GeneratorSource>(spec));
  ChainSource chain(std::move(parts));
  EXPECT_EQ(chain.next()->name, "E1-n4p3-0");
  EXPECT_EQ(chain.next()->name, "E1-n4p3-1");
  EXPECT_EQ(chain.next()->name, "E4-n4p3-0");
  EXPECT_FALSE(chain.next().has_value());
}

TEST(JsonlSource, ParsesFileTextAndKindLinesWithOverrides) {
  const std::string path = writeInstanceFile("jsonl_ref.psi", 7, "from-file");
  std::ostringstream instanceText;
  io::writeInstance(instanceText, makeInstance(8, "inline-text"));

  std::ostringstream lines;
  lines << "{\"file\": " << '"' << path << '"' << "}\n";
  lines << "\n";  // blank lines are skipped
  lines << "{\"text\": \"" << [&] {
    std::string escaped;
    for (const char c : instanceText.str()) {
      if (c == '\n') escaped += "\\n";
      else if (c == '"') escaped += "\\\"";
      else escaped += c;
    }
    return escaped;
  }() << "\", \"points\": 9, \"overlap\": true}\n";
  lines << R"({"kind": "e2", "stages": 5, "processors": 3, "seed": 11, "name": "renamed"})"
        << "\n";

  std::istringstream in(lines.str());
  JsonlSource source(in, JsonlDefaults{service::SweepSpec{4, 3},
                                       core::CommModel::kSequential});

  const std::optional<service::Request> fromFile = source.next();
  ASSERT_TRUE(fromFile.has_value());
  EXPECT_EQ(fromFile->name, "from-file");
  EXPECT_EQ(fromFile->sweep.points, 4u);  // defaults apply
  EXPECT_EQ(fromFile->model, core::CommModel::kSequential);

  const std::optional<service::Request> fromText = source.next();
  ASSERT_TRUE(fromText.has_value());
  EXPECT_EQ(fromText->name, "inline-text");
  EXPECT_EQ(fromText->sweep.points, 9u);  // per-line override
  EXPECT_EQ(fromText->model, core::CommModel::kOverlapped);

  const std::optional<service::Request> generated = source.next();
  ASSERT_TRUE(generated.has_value());
  EXPECT_EQ(generated->name, "renamed");
  EXPECT_EQ(generated->pipeline.stageCount(), 5u);
  EXPECT_FALSE(source.next().has_value());
}

TEST(JsonlSource, KindLinesAreDeterministicPerSeed) {
  const std::string line = R"({"kind": "E2", "stages": 6, "processors": 4, "seed": 3})";
  std::istringstream in1(line);
  std::istringstream in2(line);
  JsonlSource s1(in1);
  JsonlSource s2(in2);
  const auto r1 = s1.next();
  const auto r2 = s2.next();
  ASSERT_TRUE(r1.has_value());
  ASSERT_TRUE(r2.has_value());
  EXPECT_EQ(service::requestIdentity(*r1).key, service::requestIdentity(*r2).key);
  EXPECT_EQ(r1->name, "E2-n6p4-s3");
}

TEST(JsonlSource, MalformedLinesGoToTheHandlerAndAreSkipped) {
  std::istringstream in(
      "{\"kind\": \"E1\", \"stages\": 4, \"processors\": 3}\n"
      "{not json}\n"
      "{\"file\": \"x\", \"text\": \"y\"}\n"
      "{\"kind\": \"E9\", \"stages\": 4, \"processors\": 3}\n"
      "{\"kind\": \"E1\", \"stages\": 4, \"processors\": 3, \"typo\": 1}\n"
      "{\"kind\": \"E4\", \"stages\": 4, \"processors\": 3}\n");
  std::vector<std::size_t> badLines;
  JsonlSource source(in, {}, [&](std::size_t line, const std::string& message) {
    badLines.push_back(line);
    EXPECT_FALSE(message.empty());
    // The inner parser's "line 1: " prefix must be stripped — the stream
    // line number in the callback is the only line that means anything.
    EXPECT_EQ(message.rfind("line 1: ", 0), std::string::npos) << message;
  });
  std::vector<std::string> names;
  while (const std::optional<service::Request> request = source.next()) {
    names.push_back(request->name);
  }
  EXPECT_EQ(names, (std::vector<std::string>{"E1-n4p3-s20070628", "E4-n4p3-s20070628"}));
  EXPECT_EQ(badLines, (std::vector<std::size_t>{2, 3, 4, 5}));
}

TEST(JsonlSource, MalformedLineThrowsWithoutAHandler) {
  std::istringstream in("{broken\n");
  JsonlSource source(in);
  EXPECT_THROW((void)source.next(), io::ParseError);
}

TEST(JsonlSource, GeneratorOnlyFieldsAreRejectedOnFileAndTextLines) {
  // {"file": ..., "seed": ...} must not silently ignore the seed — the
  // client thinks it re-seeded; we must say the field does not apply.
  const std::string path = writeInstanceFile("gen_only.psi", 9, "gen-only");
  std::istringstream in("{\"file\": \"" + path + "\", \"seed\": 3}\n");
  std::string message;
  JsonlSource source(in, {}, [&](std::size_t, const std::string& m) { message = m; });
  EXPECT_FALSE(source.next().has_value());
  EXPECT_NE(message.find("only applies to \"kind\" lines"), std::string::npos) << message;
}

TEST(JsonlSource, DeadlineMsStampsAnAbsoluteDeadline) {
  std::istringstream in(
      "{\"kind\": \"E1\", \"stages\": 4, \"processors\": 3, \"deadline_ms\": 5000}\n"
      "{\"kind\": \"E1\", \"stages\": 4, \"processors\": 3}\n"
      "{\"kind\": \"E1\", \"stages\": 4, \"processors\": 3, \"deadline_ms\": 0}\n");
  JsonlSource source(in);

  const std::optional<service::Request> bounded = source.next();
  ASSERT_TRUE(bounded.has_value());
  EXPECT_TRUE(bounded->deadline.active);
  EXPECT_FALSE(bounded->deadline.expired());
  const double remaining = bounded->deadline.remainingMs();
  EXPECT_GT(remaining, 1000.0);  // stamped ~5s out
  EXPECT_LE(remaining, 5000.0);

  const std::optional<service::Request> unbounded = source.next();
  ASSERT_TRUE(unbounded.has_value());
  EXPECT_FALSE(unbounded->deadline.active);  // no field, no default: inactive

  const std::optional<service::Request> zero = source.next();
  ASSERT_TRUE(zero.has_value());
  EXPECT_FALSE(zero->deadline.active);  // explicit 0 disables
}

TEST(JsonlSource, DeadlineDefaultAppliesOnlyWhenLineHasNone) {
  JsonlDefaults defaults;
  defaults.deadlineMs = 2000;
  std::istringstream in(
      "{\"kind\": \"E1\", \"stages\": 4, \"processors\": 3}\n"
      "{\"kind\": \"E1\", \"stages\": 4, \"processors\": 3, \"deadline_ms\": 60000}\n");
  JsonlSource source(in, defaults);

  const std::optional<service::Request> defaulted = source.next();
  ASSERT_TRUE(defaulted.has_value());
  EXPECT_TRUE(defaulted->deadline.active);
  EXPECT_LE(defaulted->deadline.remainingMs(), 2000.0);

  const std::optional<service::Request> overridden = source.next();
  ASSERT_TRUE(overridden.has_value());
  EXPECT_GT(overridden->deadline.remainingMs(), 10000.0);  // line override wins
}

TEST(JsonlSource, NegativeDeadlineMsIsRejected) {
  std::istringstream in(
      "{\"kind\": \"E1\", \"stages\": 4, \"processors\": 3, \"deadline_ms\": -1}\n");
  std::string message;
  JsonlSource source(in, {}, [&](std::size_t, const std::string& m) { message = m; });
  EXPECT_FALSE(source.next().has_value());
  EXPECT_NE(message.find("deadline_ms"), std::string::npos) << message;
}

TEST(JsonlSource, DeadlineIsExcludedFromRequestIdentity) {
  // The deadline is QoS, not identity: two requests differing only in
  // deadline_ms must coalesce/cache as the same work.
  std::istringstream in(
      "{\"kind\": \"E2\", \"stages\": 5, \"processors\": 3, \"seed\": 4, \"deadline_ms\": 1000}\n"
      "{\"kind\": \"E2\", \"stages\": 5, \"processors\": 3, \"seed\": 4}\n");
  JsonlSource source(in);
  const auto a = source.next();
  const auto b = source.next();
  ASSERT_TRUE(a.has_value());
  ASSERT_TRUE(b.has_value());
  EXPECT_EQ(service::requestIdentity(*a).key, service::requestIdentity(*b).key);
  EXPECT_EQ(service::requestIdentity(*a).fp.hex(), service::requestIdentity(*b).fp.hex());
}

TEST(JsonlSink, EmitsOneParseableLinePerOutcome) {
  std::ostringstream out;
  JsonlSink sink(out);

  workload::Rng rng(13);
  workload::InstancePair pair =
      workload::randomInstance(workload::ExperimentKind::kE2BalancedHetComm, 5, 3, rng);
  const service::Request request{pair.pipeline, pair.platform, core::CommModel::kSequential,
                                 service::SweepSpec{4, 3}, "sink-test"};
  service::RequestOutcome ok;
  ok.ok = true;
  ok.fingerprint = service::requestIdentity(request).fp;  // solve paths set this
  ok.result.front.push_back(core::ParetoPoint{2.5, 7.5, std::nullopt});
  ok.result.solvers.push_back(service::SolverContribution{"H1-SpMonoP", 4, true});
  sink.emit(0, request, ok);
  service::RequestOutcome failed;
  failed.ok = false;
  failed.fingerprint = service::requestIdentity(request).fp;
  failed.error = "bad \"sweep\"";
  sink.emit(1, request, failed);

  std::istringstream lines(out.str());
  std::string line;
  ASSERT_TRUE(std::getline(lines, line));
  const io::JsonValue first = io::parseJson(line);  // valid single-line JSON
  EXPECT_EQ(first.find("index")->asSize(), 0u);
  EXPECT_EQ(first.find("name")->asString(), "sink-test");
  EXPECT_EQ(first.find("fingerprint")->asString(), service::requestIdentity(request).fp.hex());
  EXPECT_TRUE(first.find("ok")->asBool());
  EXPECT_EQ(first.find("front")->items.size(), 1u);
  EXPECT_EQ(first.find("front")->items[0].find("period")->asNumber(), 2.5);

  ASSERT_TRUE(std::getline(lines, line));
  const io::JsonValue second = io::parseJson(line);  // escaping survives round-trip
  EXPECT_FALSE(second.find("ok")->asBool());
  EXPECT_EQ(second.find("error")->asString(), "bad \"sweep\"");
  EXPECT_FALSE(std::getline(lines, line));  // exactly two lines
}

}  // namespace
}  // namespace pipesched::stream
