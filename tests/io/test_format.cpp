// Text-format serialization: canonical writes, round-trips (including
// randomized property sweeps), tolerant parsing (comments, wrapping, blank
// lines) and precise error reporting for every malformed-input class.
#include <gtest/gtest.h>

#include <sstream>

#include "pipesched/io/format.hpp"
#include "pipesched/workload/generator.hpp"

namespace pipesched::io {
namespace {

using core::IntervalMapping;
using core::Pipeline;
using core::Platform;
using workload::ExperimentKind;
using workload::Rng;

Instance sampleInstance() {
  return Instance{Pipeline({2, 4, 6}, {1, 2, 3, 4}), Platform({5, 1, 3}, 10), "sample"};
}

TEST(InstanceFormat, CanonicalWriteRoundTrips) {
  const Instance original = sampleInstance();
  std::ostringstream out;
  writeInstance(out, original);
  const Instance back = readInstanceFromString(out.str());
  EXPECT_EQ(back.name, "sample");
  EXPECT_EQ(back.pipeline, original.pipeline);
  EXPECT_EQ(back.platform.speeds(), original.platform.speeds());
  EXPECT_DOUBLE_EQ(back.platform.bandwidth(), original.platform.bandwidth());
}

TEST(InstanceFormat, HeterogeneousPlatformRoundTrips) {
  const auto plat = Platform::fullyHeterogeneous(
      {2, 4}, {1, 7, 9, 1}, {5, 6}, {7, 8});
  const Instance original{Pipeline({1, 2}, {0, 1, 0}), plat, ""};
  std::ostringstream out;
  writeInstance(out, original);
  const Instance back = readInstanceFromString(out.str());
  ASSERT_FALSE(back.platform.isCommHomogeneous());
  EXPECT_DOUBLE_EQ(back.platform.bandwidth(0, 1), 7);
  EXPECT_DOUBLE_EQ(back.platform.bandwidth(1, 0), 9);
  EXPECT_DOUBLE_EQ(back.platform.inputBandwidth(1), 6);
  EXPECT_DOUBLE_EQ(back.platform.outputBandwidth(0), 7);
}

TEST(InstanceFormat, ParsesCommentsBlankLinesAndWrapping) {
  const Instance inst = readInstanceFromString(R"(
# a header comment
pipesched-instance v1

stages 3
work 2 4     # trailing comment
  6
comm 1 2
     3 4
processors 2
speeds 5 1
bandwidth 10
)");
  EXPECT_EQ(inst.pipeline.stageCount(), 3u);
  EXPECT_DOUBLE_EQ(inst.pipeline.work(2), 6);
  EXPECT_DOUBLE_EQ(inst.pipeline.comm(3), 4);
  EXPECT_TRUE(inst.name.empty());
}

TEST(InstanceFormat, NameCapturesRestOfLineWithoutComment) {
  const Instance inst = readInstanceFromString(
      "pipesched-instance v1\n"
      "name  video pipeline (lab)  # not part of the name\n"
      "stages 1\nwork 1\ncomm 0 0\nprocessors 1\nspeeds 1\nbandwidth 1\n");
  EXPECT_EQ(inst.name, "video pipeline (lab)");
}

TEST(InstanceFormat, KeywordOrderIsFreeApartFromCountDependencies) {
  const Instance inst = readInstanceFromString(
      "pipesched-instance v1\n"
      "processors 2\nspeeds 3 4\nbandwidth 2\n"
      "stages 2\nwork 1 1\ncomm 0 1 0\n");
  EXPECT_EQ(inst.platform.processorCount(), 2u);
  EXPECT_EQ(inst.pipeline.stageCount(), 2u);
}

struct BadCase {
  const char* label;
  const char* text;
  const char* needle;  ///< substring expected in the error message
};

// Without a printer gtest lists the param as the raw bytes of its three
// pointers, so the discovered ctest names change with every link and every
// ASLR draw. Printing the label keeps them the same from build to build.
void PrintTo(const BadCase& c, std::ostream* os) { *os << c.label; }

class InstanceFormatErrors : public ::testing::TestWithParam<BadCase> {};

TEST_P(InstanceFormatErrors, ReportsTheProblem) {
  const BadCase& c = GetParam();
  try {
    (void)readInstanceFromString(c.text);
    FAIL() << "expected ParseError for " << c.label;
  } catch (const ParseError& e) {
    EXPECT_NE(std::string(e.what()).find(c.needle), std::string::npos)
        << "message was: " << e.what();
  }
}

INSTANTIATE_TEST_SUITE_P(
    Cases, InstanceFormatErrors,
    ::testing::Values(
        BadCase{"EmptyInput", "", "unexpected end of input"},
        BadCase{"WrongMagic", "pipesched-mapping v1\n", "expected header"},
        BadCase{"WrongVersion", "pipesched-instance v2\n", "unsupported"},
        BadCase{"UnknownKeyword",
                "pipesched-instance v1\nfrobnicate 3\n", "unknown keyword"},
        BadCase{"WorkBeforeStages",
                "pipesched-instance v1\nwork 1\n", "'work' must come after"},
        BadCase{"NonNumericWork",
                "pipesched-instance v1\nstages 1\nwork banana\n", "expected a number"},
        BadCase{"TrailingGarbageNumber",
                "pipesched-instance v1\nstages 1\nwork 1.5x\n", "trailing garbage"},
        BadCase{"FractionalStages",
                "pipesched-instance v1\nstages 1.5\n", "non-negative integer"},
        BadCase{"ZeroStages", "pipesched-instance v1\nstages 0\n", "stages must be >= 1"},
        BadCase{"TruncatedWork",
                "pipesched-instance v1\nstages 3\nwork 1 2\ncomm 0 0 0 0\n",
                "expected a number"},
        BadCase{"DuplicateStages",
                "pipesched-instance v1\nstages 1\nstages 1\n", "duplicate 'stages'"},
        BadCase{"MissingBandwidth",
                "pipesched-instance v1\nstages 1\nwork 1\ncomm 0 0\n"
                "processors 1\nspeeds 1\n",
                "missing 'bandwidth'"},
        BadCase{"BandwidthAndLinks",
                "pipesched-instance v1\nstages 1\nwork 1\ncomm 0 0\n"
                "processors 1\nspeeds 1\nbandwidth 1\nlinks 1\n"
                "input-bandwidth 1\noutput-bandwidth 1\n",
                "exclusive"},
        BadCase{"IncompleteHeteroBlock",
                "pipesched-instance v1\nstages 1\nwork 1\ncomm 0 0\n"
                "processors 1\nspeeds 1\nlinks 1\n",
                "together"}),
    [](const auto& paramInfo) { return paramInfo.param.label; });

TEST(InstanceFormat, ParseErrorCarriesLineNumber) {
  try {
    (void)readInstanceFromString(
        "pipesched-instance v1\n"
        "stages 2\n"
        "work 1 oops\n");
    FAIL();
  } catch (const ParseError& e) {
    EXPECT_EQ(e.line(), 3u);
  }
}

TEST(InstanceFormat, ModelInvariantsStillEnforced) {
  // Zero work violates the Pipeline invariant — surfaced as ModelError, not
  // swallowed by the parser.
  EXPECT_THROW((void)readInstanceFromString(
                   "pipesched-instance v1\nstages 1\nwork 0\ncomm 0 0\n"
                   "processors 1\nspeeds 1\nbandwidth 1\n"),
               ModelError);
}

TEST(InstanceFormat, RandomInstancesRoundTripExactly) {
  Rng rng(42);
  for (const ExperimentKind kind :
       {ExperimentKind::kE1BalancedHomComm, ExperimentKind::kE2BalancedHetComm,
        ExperimentKind::kE3LargeComputations, ExperimentKind::kE4SmallComputations}) {
    for (int round = 0; round < 4; ++round) {
      const auto pair = workload::randomInstance(kind, 5 + round * 7, 3 + round, rng);
      const Instance original{pair.pipeline, pair.platform, "rt"};
      std::ostringstream out;
      writeInstance(out, original);
      const Instance back = readInstanceFromString(out.str());
      EXPECT_EQ(back.pipeline, original.pipeline);
      EXPECT_EQ(back.platform.speeds(), original.platform.speeds());
    }
  }
}

TEST(InstanceFormat, RandomlyCorruptedInputNeverCrashes) {
  // Fuzz-ish robustness: token-level mutations of a canonical file must
  // either parse (benign mutation) or raise one of the library's typed
  // exceptions — never crash or hang.
  std::ostringstream canonical;
  writeInstance(canonical, sampleInstance());
  const std::string base = canonical.str();

  std::vector<std::string> tokens;
  {
    std::istringstream split(base);
    std::string token;
    while (split >> token) tokens.push_back(token);
  }
  Rng rng(99);
  for (int round = 0; round < 200; ++round) {
    std::vector<std::string> mutated = tokens;
    const auto pos = static_cast<std::size_t>(
        rng.uniformInt(0, static_cast<std::int64_t>(mutated.size()) - 1));
    switch (rng.uniformInt(0, 3)) {
      case 0: mutated.erase(mutated.begin() + static_cast<std::ptrdiff_t>(pos)); break;
      case 1: mutated.insert(mutated.begin() + static_cast<std::ptrdiff_t>(pos),
                             mutated[pos]); break;
      case 2: mutated[pos] = "garbage"; break;
      default: mutated[pos] = "-1"; break;
    }
    std::string text;
    for (const std::string& token : mutated) text += token + " ";
    try {
      (void)readInstanceFromString(text);
    } catch (const ParseError&) {
    } catch (const ModelError&) {
    }
  }
}

TEST(InstanceFormat, FileRoundTripAndMissingFile) {
  const std::string path = ::testing::TempDir() + "/pipesched_io_instance.txt";
  writeInstanceToFile(path, sampleInstance());
  const Instance back = readInstanceFromFile(path);
  EXPECT_EQ(back.pipeline, sampleInstance().pipeline);
  EXPECT_THROW((void)readInstanceFromFile(path + ".does-not-exist"), std::runtime_error);
}

TEST(MappingFormat, CanonicalWriteRoundTrips) {
  const auto mapping = IntervalMapping::fromCuts(6, {1, 3, 5}, {2, 0, 4});
  std::ostringstream out;
  writeMapping(out, mapping);
  const auto back = readMappingFromString(out.str());
  EXPECT_EQ(back, mapping);
}

TEST(MappingFormat, ExpectedStageCountIsChecked) {
  const auto mapping = IntervalMapping::fromCuts(4, {3}, {0});
  std::ostringstream out;
  writeMapping(out, mapping);
  EXPECT_NO_THROW((void)readMappingFromString(out.str(), 4));
  EXPECT_THROW((void)readMappingFromString(out.str(), 5), ParseError);
}

TEST(MappingFormat, DeclaredCountsMustMatch) {
  EXPECT_THROW((void)readMappingFromString(
                   "pipesched-mapping v1\nstages 2\nintervals 2\ninterval 0 1 0\n"),
               ParseError);
  EXPECT_THROW((void)readMappingFromString(
                   "pipesched-mapping v1\nstages 5\nintervals 1\ninterval 0 1 0\n"),
               ParseError);
}

TEST(MappingFormat, RejectsBackwardInterval) {
  EXPECT_THROW((void)readMappingFromString(
                   "pipesched-mapping v1\nstages 2\nintervals 1\ninterval 1 0 0\n"),
               ParseError);
}

TEST(MappingFormat, RejectsNonContiguousIntervals) {
  // The ordering invariant is enforced by IntervalMapping's constructor.
  EXPECT_THROW((void)readMappingFromString(
                   "pipesched-mapping v1\nstages 4\nintervals 2\n"
                   "interval 0 1 0\ninterval 3 3 1\n"),
               MappingError);
}

TEST(MappingFormat, FileRoundTrip) {
  const std::string path = ::testing::TempDir() + "/pipesched_io_mapping.txt";
  const auto mapping = IntervalMapping::fromCuts(3, {0, 2}, {1, 0});
  writeMappingToFile(path, mapping);
  EXPECT_EQ(readMappingFromFile(path, 3), mapping);
}

TEST(DealMappingFormat, CanonicalWriteRoundTrips) {
  const core::ReplicatedMapping mapping({core::ReplicatedAssignment{{0, 1}, {2}},
                                         core::ReplicatedAssignment{{2, 4}, {0, 3, 5}}});
  std::ostringstream out;
  writeReplicatedMapping(out, mapping);
  const auto back = readReplicatedMappingFromString(out.str());
  EXPECT_EQ(back, mapping);
  EXPECT_NE(out.str().find("interval 2 4 0,3,5"), std::string::npos) << out.str();
}

TEST(DealMappingFormat, ExpectedStagesAndCoverageChecked) {
  const core::ReplicatedMapping mapping({core::ReplicatedAssignment{{0, 2}, {1, 4}}});
  std::ostringstream out;
  writeReplicatedMapping(out, mapping);
  EXPECT_NO_THROW((void)readReplicatedMappingFromString(out.str(), 3));
  EXPECT_THROW((void)readReplicatedMappingFromString(out.str(), 4), ParseError);
  // Declared stage count inconsistent with the interval coverage.
  EXPECT_THROW((void)readReplicatedMappingFromString(
                   "pipesched-deal-mapping v1\nstages 5\nintervals 1\ninterval 0 2 1\n"),
               ParseError);
}

TEST(DealMappingFormat, RejectsMalformedReplicaLists) {
  const char* base = "pipesched-deal-mapping v1\nstages 3\nintervals 1\n";
  EXPECT_THROW(
      (void)readReplicatedMappingFromString(std::string(base) + "interval 0 2 1,x\n"),
      ParseError);
  EXPECT_THROW(
      (void)readReplicatedMappingFromString(std::string(base) + "interval 0 2 1,,2\n"),
      ParseError);
  EXPECT_THROW((void)readReplicatedMappingFromString(std::string(base) + "interval 2 0 1\n"),
               ParseError);
}

TEST(DealMappingFormat, WrongHeaderIsRejectedBothWays) {
  // A deal file is not a plain mapping and vice versa.
  EXPECT_THROW((void)readMappingFromString("pipesched-deal-mapping v1\nstages 1\n"),
               ParseError);
  EXPECT_THROW((void)readReplicatedMappingFromString("pipesched-mapping v1\nstages 1\n"),
               ParseError);
}

TEST(DealMappingFormat, FileRoundTrip) {
  const std::string path = ::testing::TempDir() + "/pipesched_io_deal.txt";
  const core::ReplicatedMapping mapping({core::ReplicatedAssignment{{0, 0}, {0, 1}},
                                         core::ReplicatedAssignment{{1, 1}, {2}}});
  writeReplicatedMappingToFile(path, mapping);
  EXPECT_EQ(readReplicatedMappingFromFile(path, 2), mapping);
}

}  // namespace
}  // namespace pipesched::io
