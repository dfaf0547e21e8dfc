// The zero-copy ingestion path: BlockLineReader line carving and its line
// limit, the in-place LiteParser, and — the load-bearing contract — a
// differential suite driving the same corpus through io::parseJson (the
// tree reader in pipesched_oracles) and the fast tokenizer, asserting
// bit-identical values and identical error classification, both at the
// raw-JSON level and end to end through stream::JsonlSource against
// oracles::LegacyJsonlSource.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <fstream>
#include <optional>
#include <random>
#include <sstream>
#include <streambuf>
#include <string>
#include <unistd.h>
#include <utility>
#include <vector>

#include "pipesched/io/format.hpp"
#include "pipesched/io/json.hpp"
#include "pipesched/io/jsonl_fast.hpp"
#include "pipesched/obs/metrics.hpp"
#include "pipesched/obs/trace.hpp"
#include "pipesched/oracles/json_reader.hpp"
#include "pipesched/oracles/legacy_jsonl_source.hpp"
#include "pipesched/service/fingerprint.hpp"
#include "pipesched/stream/source.hpp"
#include "pipesched/workload/generator.hpp"

namespace pipesched::io {
namespace {

std::vector<std::string> drainLines(BlockLineReader& reader) {
  std::vector<std::string> lines;
  while (std::optional<MutableLine> line = reader.next()) {
    EXPECT_EQ(line->data[line->size], '\0');  // the NUL contract
    lines.emplace_back(line->data, line->size);
  }
  return lines;
}

TEST(BlockLineReader, SplitsLinesAndDropsNewlines) {
  std::istringstream in("alpha\nbb\nccc\n");
  BlockLineReader reader(in);
  EXPECT_EQ(drainLines(reader),
            (std::vector<std::string>{"alpha", "bb", "ccc"}));
}

TEST(BlockLineReader, FinalLineWithoutTrailingNewline) {
  std::istringstream in("one\ntwo");
  BlockLineReader reader(in);
  EXPECT_EQ(drainLines(reader), (std::vector<std::string>{"one", "two"}));
}

TEST(BlockLineReader, KeepsCarriageReturnLikeGetline) {
  std::istringstream in("a\r\nb\r\n");
  BlockLineReader reader(in);
  EXPECT_EQ(drainLines(reader), (std::vector<std::string>{"a\r", "b\r"}));
}

TEST(BlockLineReader, EmptyAndBlankLines) {
  std::istringstream in("\n\nx\n\n");
  BlockLineReader reader(in);
  EXPECT_EQ(drainLines(reader), (std::vector<std::string>{"", "", "x", ""}));
}

TEST(BlockLineReader, EmptyStreamYieldsNothing) {
  std::istringstream in("");
  BlockLineReader reader(in);
  EXPECT_EQ(reader.next(), std::nullopt);
  EXPECT_EQ(reader.next(), std::nullopt);  // stays at end
}

TEST(BlockLineReader, LinesLongerThanTheBlockGrowTheBuffer) {
  const std::string longLine(1000, 'x');
  std::istringstream in(longLine + "\nshort\n" + longLine);
  BlockLineReader reader(in, /*blockSize=*/16);
  EXPECT_EQ(drainLines(reader),
            (std::vector<std::string>{longLine, "short", longLine}));
}

TEST(BlockLineReader, ManyLinesRecycleTheBufferWithoutRescan) {
  std::string input;
  std::vector<std::string> expected;
  for (int i = 0; i < 500; ++i) {
    expected.push_back("line-" + std::to_string(i));
    input += expected.back();
    input += '\n';
  }
  std::istringstream in(input);
  BlockLineReader reader(in, /*blockSize=*/32);  // forces many compactions
  EXPECT_EQ(drainLines(reader), expected);
}

TEST(BlockLineReader, MatchesGetlineOnRandomizedStreams) {
  std::mt19937 rng(20070628);
  for (int round = 0; round < 50; ++round) {
    std::string input;
    const int pieces = static_cast<int>(rng() % 40);
    for (int i = 0; i < pieces; ++i) {
      const std::size_t len = rng() % 70;
      for (std::size_t j = 0; j < len; ++j) {
        input += static_cast<char>('a' + rng() % 26);
      }
      if (rng() % 4 != 0) input += '\n';
    }
    std::vector<std::string> viaGetline;
    {
      std::istringstream in(input);
      std::string line;
      while (std::getline(in, line)) viaGetline.push_back(line);
    }
    std::istringstream in(input);
    BlockLineReader reader(in, /*blockSize=*/1 + rng() % 64);
    EXPECT_EQ(drainLines(reader), viaGetline) << "round " << round;
  }
}

/// Yields `size` bytes of 'x' and then `tail`, generating them chunk by chunk
/// so a line far over the limit costs the producer no memory.
class LongLineBuf : public std::streambuf {
 public:
  LongLineBuf(std::size_t size, std::string tail)
      : chunk_(64 * 1024, 'x'), remaining_(size), tail_(std::move(tail)) {}

 protected:
  int_type underflow() override {
    if (remaining_ > 0) {
      const std::size_t n = std::min(remaining_, chunk_.size());
      remaining_ -= n;
      setg(chunk_.data(), chunk_.data(), chunk_.data() + n);
    } else if (!tailServed_ && !tail_.empty()) {
      tailServed_ = true;
      setg(tail_.data(), tail_.data(), tail_.data() + tail_.size());
    } else {
      return traits_type::eof();
    }
    return traits_type::to_int_type(*gptr());
  }

 private:
  std::string chunk_;
  std::size_t remaining_;
  std::string tail_;
  bool tailServed_ = false;
};

TEST(BlockLineReader, OverLimitLineIsDroppedThroughItsNewline) {
  LongLineBuf buf(kMaxRequestBytes + 1, "\nok\n");
  std::istream in(&buf);
  BlockLineReader reader(in);
  const std::optional<MutableLine> dropped = reader.next();
  ASSERT_TRUE(dropped.has_value());
  EXPECT_TRUE(dropped->overLimit);
  EXPECT_EQ(dropped->size, 0u);
  const std::optional<MutableLine> next = reader.next();
  ASSERT_TRUE(next.has_value());
  EXPECT_FALSE(next->overLimit);
  EXPECT_EQ(std::string(next->data, next->size), "ok");
  EXPECT_EQ(reader.next(), std::nullopt);
}

TEST(BlockLineReader, OverLimitFinalLineWithoutNewlineIsDropped) {
  LongLineBuf buf(kMaxRequestBytes + 4096, "");
  std::istream in(&buf);
  BlockLineReader reader(in, /*blockSize=*/1000);
  const std::optional<MutableLine> dropped = reader.next();
  ASSERT_TRUE(dropped.has_value());
  EXPECT_TRUE(dropped->overLimit);
  EXPECT_EQ(reader.next(), std::nullopt);
}

TEST(BlockLineReader, LineAtTheLimitIsKept) {
  LongLineBuf buf(kMaxRequestBytes, "\n");
  std::istream in(&buf);
  BlockLineReader reader(in);
  const std::optional<MutableLine> line = reader.next();
  ASSERT_TRUE(line.has_value());
  EXPECT_FALSE(line->overLimit);
  EXPECT_EQ(line->size, kMaxRequestBytes);
  EXPECT_EQ(line->data[line->size], '\0');
  EXPECT_EQ(reader.next(), std::nullopt);
}

// ---------------------------------------------------------------------------
// LiteParser unit behavior.
// ---------------------------------------------------------------------------

/// Parses `text` through a fresh LiteParser over a mutable copy. The copy is
/// returned alongside so the borrowed views stay valid while a test looks.
struct LiteRun {
  std::string buffer;
  LiteParser parser;
  const LiteDocument* doc = nullptr;

  explicit LiteRun(std::string text) : buffer(std::move(text)) {
    doc = &parser.parse(buffer.data(), buffer.size());
  }
};

TEST(LiteParser, ParsesTopLevelObjectScalars) {
  LiteRun run(R"({"a": 1, "b": "x", "c": true, "d": null, "e": -2.5e2})");
  ASSERT_TRUE(run.doc->isObject());
  ASSERT_EQ(run.doc->members.size(), 5u);
  EXPECT_EQ(run.doc->members[0].name, "a");
  EXPECT_EQ(run.doc->find("a")->asNumber(), 1.0);
  EXPECT_EQ(run.doc->find("b")->asString(), "x");
  EXPECT_TRUE(run.doc->find("c")->asBool());
  EXPECT_TRUE(run.doc->find("d")->isNull());
  EXPECT_EQ(run.doc->find("e")->asNumber(), -250.0);
  EXPECT_EQ(run.doc->find("absent"), nullptr);
}

TEST(LiteParser, DecodesEscapesInPlace) {
  LiteRun run(R"({"k": "a\"b\\c\/d\n\t\u0041\u00e9\u20ac\ud83d\ude00"})");
  EXPECT_EQ(run.doc->find("k")->asString(),
            "a\"b\\c/d\n\tA\xc3\xa9\xe2\x82\xac\xf0\x9f\x98\x80");
}

TEST(LiteParser, NestedContainersAreValidatedButTypeOnly) {
  LiteRun run(R"({"arr": [1, {"x": 2}, []], "obj": {"y": [3], "z": "s"}})");
  ASSERT_EQ(run.doc->members.size(), 2u);
  EXPECT_TRUE(run.doc->find("arr")->isArray());
  EXPECT_TRUE(run.doc->find("obj")->isObject());
  // Accessing a container as a scalar throws the tree reader's type error.
  EXPECT_THROW((void)run.doc->find("arr")->asNumber(), std::runtime_error);
}

TEST(LiteParser, NonObjectRootsParseWithoutMembers) {
  EXPECT_TRUE(LiteRun("42").doc->root.isNumber());
  EXPECT_TRUE(LiteRun("\"s\"").doc->root.isString());
  EXPECT_TRUE(LiteRun("[1, 2]").doc->root.isArray());
  EXPECT_TRUE(LiteRun("null").doc->root.isNull());
  LiteRun arr("[1, 2]");
  EXPECT_TRUE(arr.doc->members.empty());
  EXPECT_EQ(arr.doc->find("a"), nullptr);  // non-object find contract
}

TEST(LiteParser, ArenaIsRecycledAcrossLines) {
  LiteParser parser;
  std::string first(R"({"a": 1, "b": 2})");
  const LiteDocument& d1 = parser.parse(first.data(), first.size());
  EXPECT_EQ(d1.members.size(), 2u);
  std::string second(R"({"only": "x"})");
  const LiteDocument& d2 = parser.parse(second.data(), second.size());
  ASSERT_EQ(d2.members.size(), 1u);
  EXPECT_EQ(d2.find("only")->asString(), "x");
}

// ---------------------------------------------------------------------------
// Differential: LiteParser vs io::parseJson over one line of JSON text.
// Success must agree value for value (numbers bit-identical); failure must
// agree on the exact error message.
// ---------------------------------------------------------------------------

struct ParseOutcome {
  bool ok = false;
  std::string error;
};

ParseOutcome legacyOutcome(const std::string& line, JsonValue& out) {
  try {
    out = parseJson(line);
    return {true, {}};
  } catch (const std::exception& e) {
    return {false, e.what()};
  }
}

ParseOutcome fastOutcome(LiteRun*& run, const std::string& line) {
  try {
    run = new LiteRun(line);
    return {true, {}};
  } catch (const std::exception& e) {
    return {false, e.what()};
  }
}

bool bitsEqual(double a, double b) { return std::memcmp(&a, &b, sizeof a) == 0; }

void expectSameValue(const JsonValue& legacy, const LiteValue& fast,
                     const std::string& context) {
  EXPECT_EQ(static_cast<int>(legacy.type), static_cast<int>(fast.type)) << context;
  switch (legacy.type) {
    case JsonValue::Type::kBool:
      EXPECT_EQ(legacy.boolean, fast.boolean) << context;
      break;
    case JsonValue::Type::kNumber:
      EXPECT_TRUE(bitsEqual(legacy.number, fast.number))
          << context << ": " << legacy.number << " vs " << fast.number;
      break;
    case JsonValue::Type::kString:
      EXPECT_EQ(legacy.text, fast.text()) << context;
      break;
    default:
      break;  // null: nothing else to compare; containers: type-only by design
  }
}

void expectDifferentialMatch(const std::string& line) {
  const std::string context = "input: " + line;
  JsonValue legacy;
  const ParseOutcome lo = legacyOutcome(line, legacy);
  LiteRun* run = nullptr;
  const ParseOutcome fo = fastOutcome(run, line);
  EXPECT_EQ(lo.ok, fo.ok) << context << "\nlegacy: " << lo.error
                          << "\nfast:   " << fo.error;
  if (lo.ok && fo.ok) {
    expectSameValue(legacy, run->doc->root, context);
    if (legacy.isObject()) {
      ASSERT_EQ(legacy.members.size(), run->doc->members.size()) << context;
      for (std::size_t i = 0; i < legacy.members.size(); ++i) {
        EXPECT_EQ(legacy.members[i].first, run->doc->members[i].name) << context;
        expectSameValue(legacy.members[i].second, run->doc->members[i].value,
                        context + " member " + legacy.members[i].first);
      }
    }
  } else if (!lo.ok && !fo.ok) {
    EXPECT_EQ(lo.error, fo.error) << context;
  }
  delete run;
}

TEST(JsonlFastDifferential, HandCraftedCorpus) {
  const std::vector<std::string> corpus = {
      // Valid scalars and structure.
      "null", "true", "false", "42", "-0", "-3.5e2", "\"hi\"", "  7  ",
      "{}", "[]", "[1, 2, 3]",
      R"({"a": 1, "b": 2})",
      R"({"a": {"deep": [1, {"x": []}]}, "b": [[[]]], "c": "s"})",
      R"({"dup": 1, "dup": 2})",   // legal JSON at this layer; both keep both
      "{\"a\": 1}\r",              // trailing CR from a CRLF line
      "\t {\"a\": 1} \t",
      // Number grammar edges.
      "0", "-0.5", "1e0", "1E+9", "2.25e-3", "1e-310" /* subnormal, valid */,
      "9007199254740991", "9007199254740992", "18446744073709551615",
      "1e999" /* overflow */, "-1e999", "01", "1.", ".5", "1e", "1e+", "-",
      "+1", "0x10", "1..2", "--1", "1e1.5",
      // String grammar and escape edges.
      R"("a\"b\\c\/d\b\f\n\r\t")",
      R"("\u0041")", R"("\u00e9")", R"("\u20ac")", R"("\ud83d\ude00")",
      R"("\ud800")" /* unpaired high */, R"("\ud83d\u0041")" /* bad low */,
      R"("\udc00")" /* lone low */, R"("\uZZZZ")", R"("\u12")", R"("\q")",
      "\"unterminated", "\"ctrl \x01 char\"", "\"\"",
      // Structural errors.
      "", "   ", "{", "[1, 2", "{\"a\" 1}", "{\"a\": }", "{\"a\": 1,}",
      "{1: 2}", "[1 2]", "{\"a\": 1} extra", "42 43", "tru", "falsy", "nul",
      "{\"a\": 1", "[,]", "{,}", "{\"a\":}", "]", "}", ",",
      R"({"a": [1, 2}, "b": 1})", R"({"a": "b)",
  };
  for (const std::string& line : corpus) expectDifferentialMatch(line);
}

TEST(JsonlFastDifferential, RandomizedTokenSoup) {
  // Assembles lines from plausible JSON fragments — some compose into valid
  // documents, most into interestingly broken ones. The fixed seed keeps the
  // suite deterministic; the assertion is only that both parsers agree.
  const std::vector<std::string> fragments = {
      "{", "}", "[", "]", ":", ",", " ", "\t",
      "\"k\"", "\"v\\n\"", "\"\\u0041\"", "\"\\ud83d\\ude00\"", "\"\\ud800\"",
      "1", "-2.5", "1e999", "1e-310", "0", "01", "9007199254740993",
      "true", "false", "null", "tru", "x", "\\",
  };
  std::mt19937 rng(7);
  for (int round = 0; round < 400; ++round) {
    std::string line;
    const std::size_t parts = 1 + rng() % 12;
    for (std::size_t i = 0; i < parts; ++i) {
      line += fragments[rng() % fragments.size()];
    }
    expectDifferentialMatch(line);
  }
}

TEST(JsonlFastDifferential, AccessorErrorsMatchTreeReader) {
  const std::string line = R"({"n": 1.5, "neg": -1, "big": 9007199254740992,
                              "s": "x", "arr": [1]})";
  // (Single physical line in the protocol; embedded newline is JSON
  // whitespace and legal inside a value-free gap only in this unit test.)
  const JsonValue legacy = parseJson(line);
  LiteRun run(line);
  auto message = [](auto&& fn) -> std::string {
    try {
      fn();
      return "";
    } catch (const std::exception& e) {
      return e.what();
    }
  };
  EXPECT_EQ(message([&] { (void)legacy.find("n")->asSize(); }),
            message([&] { (void)run.doc->find("n")->asSize(); }));
  EXPECT_EQ(message([&] { (void)legacy.find("neg")->asSize(); }),
            message([&] { (void)run.doc->find("neg")->asSize(); }));
  EXPECT_EQ(message([&] { (void)legacy.find("big")->asU64(); }),
            message([&] { (void)run.doc->find("big")->asU64(); }));
  EXPECT_EQ(message([&] { (void)legacy.find("s")->asNumber(); }),
            message([&] { (void)run.doc->find("s")->asNumber(); }));
  EXPECT_EQ(message([&] { (void)legacy.find("arr")->asString(); }),
            message([&] { (void)run.doc->find("arr")->asString(); }));
  EXPECT_EQ(message([&] { (void)legacy.find("s")->asBool(); }),
            message([&] { (void)run.doc->find("s")->asBool(); }));
}

// ---------------------------------------------------------------------------
// End-to-end differential: JsonlSource vs oracles::LegacyJsonlSource over the
// same input must yield identical requests (canonical key + name) and
// identical error classification (line number + message).
// ---------------------------------------------------------------------------

struct SourceTrace {
  std::vector<std::string> keys;    ///< canonicalKey per request, in order
  std::vector<std::string> names;
  std::vector<std::pair<std::size_t, std::string>> errors;
  std::size_t linesRead = 0;
};

/// Drains a stream::JsonlSource or an oracles::LegacyJsonlSource over `input`.
template <typename SourceT>
SourceTrace runSource(const std::string& input, stream::JsonlDefaults defaults = {}) {
  SourceTrace trace;
  std::istringstream in(input);
  SourceT source(in, defaults, [&](std::size_t line, const std::string& message) {
    trace.errors.emplace_back(line, message);
  });
  while (std::optional<service::Request> request = source.next()) {
    trace.keys.push_back(service::canonicalKey(*request));
    trace.names.push_back(request->name);
  }
  trace.linesRead = source.linesRead();
  return trace;
}

void expectSourcesAgree(const std::string& input,
                        stream::JsonlDefaults defaults = {}) {
  const SourceTrace fast = runSource<stream::JsonlSource>(input, defaults);
  const SourceTrace legacy = runSource<oracles::LegacyJsonlSource>(input, defaults);
  EXPECT_EQ(fast.keys, legacy.keys);
  EXPECT_EQ(fast.names, legacy.names);
  EXPECT_EQ(fast.errors, legacy.errors);
  EXPECT_EQ(fast.linesRead, legacy.linesRead);
}

std::string tempPath(const std::string& name) {
  return ::testing::TempDir() + "jsonl_fast_" + std::to_string(::getpid()) + "_" +
         name;
}

/// Renders a {"text": <instance>, ...} line with proper JSON escaping.
std::string inlineTextLine(const Instance& instance, const std::string& name) {
  std::ostringstream text;
  writeInstance(text, instance);
  std::ostringstream line;
  JsonWriter w(line, /*pretty=*/false);
  w.beginObject();
  w.kv("text", text.str());
  if (!name.empty()) w.kv("name", name);
  w.endObject();
  return std::move(line).str();
}

Instance makeInstance(std::uint64_t seed) {
  workload::Rng rng(seed);
  workload::InstancePair pair = workload::randomInstance(
      workload::ExperimentKind::kE1BalancedHomComm, 4, 3, rng);
  return Instance{std::move(pair.pipeline), std::move(pair.platform), ""};
}

TEST(JsonlSourceDifferential, FullProtocolCorpus) {
  const std::string psiPath = tempPath("diff.psi");
  Instance fileInstance = makeInstance(1);
  fileInstance.name = "from-file";
  writeInstanceToFile(psiPath, fileInstance);

  std::vector<std::string> lines = {
      R"({"kind": "E2", "stages": 6, "processors": 4, "seed": 11})",
      "",
      "   \t  ",
      R"({"kind": "E1", "stages": 5, "processors": 3, "points": 7, "range": 1.5, "overlap": true, "name": "custom"})",
      inlineTextLine(makeInstance(2), "inline-a"),
      inlineTextLine(makeInstance(3), ""),  // name falls back to line number
      "{\"file\": \"" + psiPath + "\"}",
      "{\"file\": \"" + tempPath("missing.psi") + "\"}",  // identical error
      R"({"kind": "E3", "stages": 4, "processors": 2})",  // default seed
      // Error lines — every class must classify identically.
      R"({"kind": "E2", "stages": 4, "stages": 8, "processors": 2})",
      R"({"kind": "E2", "stages": 4, "processors": 2, "bogus": 1})",
      R"({"kind": "E9", "stages": 4, "processors": 2})",
      R"({"kind": "E2", "processors": 2})",
      R"({"kind": "E2", "stages": -1, "processors": 2})",
      R"({"kind": "E2", "stages": 2.5, "processors": 2})",
      R"({"kind": "E2", "stages": 9007199254740992, "processors": 2})",
      R"({"kind": "E2", "stages": 1e999, "processors": 2})",
      R"({"kind": 7, "stages": 4, "processors": 2})",
      R"({"text": "garbage that is not an instance"})",
      R"({"text": "x", "seed": 3})",    // generator knob on a text line
      R"({"file": 42})",
      R"({"kind": "E1", "stages": 3, "processors": 2, "overlap": "yes"})",
      R"({})",
      R"({"name": "only"})",
      R"({"kind": "E1", "stages": 3, "processors": 2, "file": "x"})",
      R"([1, 2])",
      R"("just a string")",
      "42",
      "{\"kind\": \"E2\", \"stages\": 4",   // truncated JSON
      R"({"kind": "E2" "stages": 4})",
      R"({"name": "\ud800"})",              // unpaired surrogate
      R"({"name": "\ud83d\ude00", "kind": "E1", "stages": 3, "processors": 2})",
      "not json at all",
      R"({"kind": "E2", "stages": 4, "processors": 2} trailing)",
      R"({"kind": "E1", "stages": 3, "processors": 2, "seed": 18446744073709551615})",
  };
  std::string byLf;
  for (const std::string& line : lines) byLf += line + "\n";
  expectSourcesAgree(byLf);

  // Same corpus with CRLF endings and a defaults override in play.
  std::string byCrlf;
  for (const std::string& line : lines) byCrlf += line + "\r\n";
  stream::JsonlDefaults defaults;
  defaults.sweep.points = 3;
  defaults.model = core::CommModel::kOverlapped;
  expectSourcesAgree(byCrlf, defaults);

  // Sanity: the corpus actually produced requests and errors.
  const SourceTrace fast = runSource<stream::JsonlSource>(byLf);
  EXPECT_EQ(fast.keys.size(), 7u);
  EXPECT_GE(fast.errors.size(), 20u);
  std::remove(psiPath.c_str());
}

TEST(JsonlSourceDifferential, RandomizedRequestLines) {
  // Random field soup over the protocol's vocabulary: both readers must agree
  // on every line, whatever combination of fields lands.
  const std::vector<std::string> fieldPool = {
      R"("kind": "E1")",      R"("kind": "E4")",     R"("kind": "bad")",
      R"("stages": 4)",       R"("stages": 0)",      R"("stages": 4.5)",
      R"("processors": 3)",   R"("processors": -2)", R"("seed": 99)",
      R"("points": 5)",       R"("points": 1e999)",  R"("range": 2.5)",
      R"("range": "wide")",   R"("overlap": true)",  R"("overlap": null)",
      R"("name": "n")",       R"("name": "\u00e9")", R"("file": "/no/such")",
      R"("text": "bad")",     R"("junk": 1)",        R"("stages": 4)",
  };
  std::mt19937 rng(13);
  std::string input;
  for (int i = 0; i < 200; ++i) {
    std::string line = "{";
    const std::size_t fields = rng() % 6;
    for (std::size_t f = 0; f < fields; ++f) {
      if (f != 0) line += ", ";
      line += fieldPool[rng() % fieldPool.size()];
    }
    line += "}";
    input += line + "\n";
  }
  expectSourcesAgree(input);
}

TEST(JsonlSourceDifferential, DuplicateKeysAreRejectedByBothReaders) {
  const std::string input =
      R"({"kind": "E2", "stages": 4, "stages": 8, "processors": 2})"
      "\n"
      R"({"kind": "E1", "kind": "E1", "stages": 3, "processors": 2})"
      "\n";
  for (const SourceTrace& trace :
       {runSource<stream::JsonlSource>(input), runSource<oracles::LegacyJsonlSource>(input)}) {
    EXPECT_TRUE(trace.keys.empty());
    ASSERT_EQ(trace.errors.size(), 2u);
    EXPECT_EQ(trace.errors[0],
              (std::pair<std::size_t, std::string>(1, "duplicate field 'stages'")));
    EXPECT_EQ(trace.errors[1],
              (std::pair<std::size_t, std::string>(2, "duplicate field 'kind'")));
  }
}

/// The error a handler-less source throws on its first request line.
template <typename SourceT>
std::string firstLineError(const std::string& input) {
  std::istringstream in(input);
  SourceT source(in);
  try {
    (void)source.next();
  } catch (const ParseError& e) {
    return e.what();
  }
  return "no ParseError";
}

TEST(JsonlSourceDifferential, WithoutHandlerBothReadersThrowTheSameError) {
  const std::string input = "\n{\"stages\": 4, \"stages\": 8}\n";
  EXPECT_EQ(firstLineError<stream::JsonlSource>(input), "line 2: duplicate field 'stages'");
  EXPECT_EQ(firstLineError<oracles::LegacyJsonlSource>(input),
            "line 2: duplicate field 'stages'");
}

TEST(JsonlSourceDifferential, ErroredLinesFeedParseMetrics) {
  obs::ScopedMetricsEnabled metrics(true);
  obs::Counter& errors = obs::registry().counter(obs::names::kParseErrors);
  obs::Histogram& parse = obs::stageHistogram(obs::Stage::kParse);
  const std::string input =
      R"({"kind": "E1", "stages": 3, "processors": 2})"
      "\nnot json\n"
      R"({"bogus": true})"
      "\n";
  for (const auto run : {&runSource<stream::JsonlSource>,
                         &runSource<oracles::LegacyJsonlSource>}) {
    const std::uint64_t errorsBefore = errors.value();
    const std::uint64_t parsedBefore = parse.snapshot().count;
    const SourceTrace trace = run(input, {});
    EXPECT_EQ(trace.keys.size(), 1u);
    EXPECT_EQ(trace.errors.size(), 2u);
    EXPECT_EQ(errors.value() - errorsBefore, 2u);
    // All three lines' wall time lands in stage.parse — errored lines
    // included, so a dirty corpus cannot flatter the parse percentiles.
    EXPECT_EQ(parse.snapshot().count - parsedBefore, 3u);
  }
}

TEST(JsonlSourceLimits, OverLimitLineIsOneParseErrorAndTheNextLineParses) {
  obs::ScopedMetricsEnabled metrics(true);
  obs::Counter& errors = obs::registry().counter(obs::names::kParseErrors);
  const std::uint64_t errorsBefore = errors.value();
  LongLineBuf buf(kMaxRequestBytes + 1,
                  "\n" R"({"kind": "E1", "stages": 3, "processors": 2})" "\n");
  std::istream in(&buf);
  std::vector<std::pair<std::size_t, std::string>> lineErrors;
  stream::JsonlSource source(in, {}, [&](std::size_t line, const std::string& message) {
    lineErrors.emplace_back(line, message);
  });
  std::vector<std::size_t> requestLines;
  while (std::optional<service::Request> request = source.next()) {
    requestLines.push_back(request->sourceLine);
  }
  ASSERT_EQ(lineErrors.size(), 1u);
  EXPECT_EQ(lineErrors[0].first, 1u);
  EXPECT_EQ(lineErrors[0].second, "line longer than the 16777216-byte request line limit");
  EXPECT_EQ(requestLines, std::vector<std::size_t>{2});
  EXPECT_EQ(errors.value() - errorsBefore, 1u);
}

// ---------------------------------------------------------------------------
// StringOutStream: the reused emit buffer behind sinks and net rendering.
// ---------------------------------------------------------------------------

TEST(StringOutStream, MatchesOstringstreamByteForByte) {
  std::string buffer;
  StringOutStream out(buffer);
  std::ostringstream reference;
  for (std::ostream* os : {static_cast<std::ostream*>(&out),
                           static_cast<std::ostream*>(&reference)}) {
    JsonWriter w(*os, /*pretty=*/false);
    w.beginObject();
    w.kv("name", "x\"y\\z\n");
    w.kv("value", 2.5);
    w.key("arr").beginArray().value(1.0).value(2.0).endArray();
    w.endObject();
  }
  EXPECT_EQ(buffer, reference.str());
}

TEST(StringOutStream, ReusedBufferKeepsCapacityAcrossLines) {
  std::string buffer;
  buffer.reserve(256);
  const std::size_t reserved = buffer.capacity();
  for (int i = 0; i < 10; ++i) {
    buffer.clear();
    StringOutStream out(buffer);
    out << "line " << i << " with some payload text";
    EXPECT_EQ(buffer, "line " + std::to_string(i) + " with some payload text");
    EXPECT_GE(buffer.capacity(), reserved);  // clear() never releases
  }
}

}  // namespace
}  // namespace pipesched::io
