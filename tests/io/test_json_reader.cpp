// The JSON reader: scalars, nesting, string escapes (incl. \uXXXX and
// surrogate pairs), number grammar, checked accessors, and error reporting
// with line numbers.
#include <gtest/gtest.h>

#include <string>

#include "pipesched/oracles/json_reader.hpp"

namespace pipesched::io {
namespace {

TEST(JsonReader, ParsesScalars) {
  EXPECT_TRUE(parseJson("null").isNull());
  EXPECT_TRUE(parseJson("true").asBool());
  EXPECT_FALSE(parseJson("false").asBool());
  EXPECT_EQ(parseJson("42").asNumber(), 42.0);
  EXPECT_EQ(parseJson("-3.5e2").asNumber(), -350.0);
  EXPECT_EQ(parseJson("\"hi\"").asString(), "hi");
  EXPECT_EQ(parseJson("  7  ").asNumber(), 7.0);  // surrounding whitespace ok
}

TEST(JsonReader, ParsesNestedContainers) {
  const JsonValue v = parseJson(
      R"({"name": "x", "sizes": [1, 2, 3], "inner": {"flag": true, "none": null}})");
  ASSERT_TRUE(v.isObject());
  EXPECT_EQ(v.find("name")->asString(), "x");
  ASSERT_TRUE(v.find("sizes")->isArray());
  ASSERT_EQ(v.find("sizes")->items.size(), 3u);
  EXPECT_EQ(v.find("sizes")->items[2].asSize(), 3u);
  EXPECT_TRUE(v.find("inner")->find("flag")->asBool());
  EXPECT_TRUE(v.find("inner")->find("none")->isNull());
  EXPECT_EQ(v.find("absent"), nullptr);
  EXPECT_TRUE(parseJson("{}").isObject());
  EXPECT_TRUE(parseJson("[]").isArray());
}

TEST(JsonReader, MembersKeepInputOrderAndFirstMatchWins) {
  const JsonValue v = parseJson(R"({"a": 1, "b": 2, "a": 3})");
  ASSERT_EQ(v.members.size(), 3u);
  EXPECT_EQ(v.members[0].first, "a");
  EXPECT_EQ(v.find("a")->asNumber(), 1.0);  // first match
}

TEST(JsonReader, DecodesEscapes) {
  EXPECT_EQ(parseJson(R"("a\"b\\c\/d\n\t")").asString(), "a\"b\\c/d\n\t");
  EXPECT_EQ(parseJson(R"("\u0041")").asString(), "A");
  EXPECT_EQ(parseJson(R"("\u00e9")").asString(), "\xc3\xa9");          // é, 2-byte UTF-8
  EXPECT_EQ(parseJson(R"("\u20ac")").asString(), "\xe2\x82\xac");      // €, 3-byte
  EXPECT_EQ(parseJson(R"("\ud83d\ude00")").asString(), "\xf0\x9f\x98\x80");  // 😀, pair
}

TEST(JsonReader, RejectsMalformedInput) {
  EXPECT_THROW((void)parseJson(""), ParseError);
  EXPECT_THROW((void)parseJson("{"), ParseError);
  EXPECT_THROW((void)parseJson("[1, 2"), ParseError);
  EXPECT_THROW((void)parseJson("\"unterminated"), ParseError);
  EXPECT_THROW((void)parseJson("{\"a\" 1}"), ParseError);
  EXPECT_THROW((void)parseJson("tru"), ParseError);
  EXPECT_THROW((void)parseJson("01x"), ParseError);
  EXPECT_THROW((void)parseJson("1 2"), ParseError);       // trailing token
  EXPECT_THROW((void)parseJson("\"\\ud800x\""), ParseError);  // unpaired surrogate
  EXPECT_THROW((void)parseJson("nan"), ParseError);
}

TEST(JsonReader, ErrorsCarryTheLineNumber) {
  try {
    (void)parseJson("{\n  \"a\": 1,\n  oops\n}");
    FAIL() << "expected ParseError";
  } catch (const ParseError& e) {
    EXPECT_EQ(e.line(), 3u);
  }
}

TEST(JsonReader, CheckedAccessorsRejectWrongTypes) {
  const JsonValue v = parseJson(R"({"s": "x", "n": 1.5, "i": 3, "neg": -1})");
  EXPECT_THROW((void)v.find("s")->asNumber(), std::runtime_error);
  EXPECT_THROW((void)v.find("n")->asBool(), std::runtime_error);
  EXPECT_THROW((void)v.find("n")->asSize(), std::runtime_error);    // 1.5 not integral
  EXPECT_THROW((void)v.find("neg")->asSize(), std::runtime_error);  // negative
  EXPECT_EQ(v.find("i")->asSize(), 3u);
  EXPECT_EQ(v.find("i")->asU64(), 3ull);
}

}  // namespace
}  // namespace pipesched::io
