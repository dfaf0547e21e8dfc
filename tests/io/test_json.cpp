// JSON writer: structural discipline (balanced containers, keys before
// values), escaping, number formatting, and the shape of the instance and
// mapping emitters.
#include <gtest/gtest.h>

#include <sstream>

#include "pipesched/io/json.hpp"

namespace pipesched::io {
namespace {

using core::IntervalMapping;
using core::Metrics;

std::string compact(const std::function<void(JsonWriter&)>& body) {
  std::ostringstream out;
  JsonWriter w(out, /*pretty=*/false);
  body(w);
  EXPECT_TRUE(w.complete());
  return out.str();
}

TEST(JsonWriter, EmptyContainers) {
  EXPECT_EQ(compact([](JsonWriter& w) { w.beginObject().endObject(); }), "{}");
  EXPECT_EQ(compact([](JsonWriter& w) { w.beginArray().endArray(); }), "[]");
}

TEST(JsonWriter, ObjectWithScalars) {
  const std::string text = compact([](JsonWriter& w) {
    w.beginObject();
    w.kv("a", 1);
    w.kv("b", std::string("x"));
    w.kv("c", true);
    w.key("d").null();
    w.endObject();
  });
  EXPECT_EQ(text, R"({"a":1,"b":"x","c":true,"d":null})");
}

TEST(JsonWriter, NestedArraysPlaceCommasCorrectly) {
  const std::string text = compact([](JsonWriter& w) {
    w.beginArray();
    w.beginArray().value(1).value(2).endArray();
    w.beginArray().endArray();
    w.value(3);
    w.endArray();
  });
  EXPECT_EQ(text, "[[1,2],[],3]");
}

TEST(JsonWriter, EscapesControlCharactersAndQuotes) {
  EXPECT_EQ(jsonEscape("a\"b\\c\nd\te"), "a\\\"b\\\\c\\nd\\te");
  EXPECT_EQ(jsonEscape(std::string(1, '\x01')), "\\u0001");
}

TEST(JsonWriter, NumbersRoundTripShortest) {
  EXPECT_EQ(compact([](JsonWriter& w) { w.value(0.1); }), "0.1");
  EXPECT_EQ(compact([](JsonWriter& w) { w.value(3.0); }), "3");
  EXPECT_EQ(compact([](JsonWriter& w) { w.value(1.0 / 3.0); }), "0.3333333333333333");
}

TEST(JsonWriter, NonFiniteBecomesNull) {
  EXPECT_EQ(compact([](JsonWriter& w) { w.value(kInfinity); }), "null");
  EXPECT_EQ(compact([](JsonWriter& w) { w.value(std::nan("")); }), "null");
}

TEST(JsonWriter, MisuseThrows) {
  std::ostringstream out;
  {
    JsonWriter w(out);
    w.beginObject();
    EXPECT_THROW(w.value(1), std::logic_error);  // value without key
  }
  {
    JsonWriter w(out);
    w.beginArray();
    EXPECT_THROW(w.key("k"), std::logic_error);  // key inside array
  }
  {
    JsonWriter w(out);
    w.beginObject();
    EXPECT_THROW(w.endArray(), std::logic_error);  // mismatched close
  }
  {
    JsonWriter w(out);
    w.value(1);
    EXPECT_THROW(w.value(2), std::logic_error);  // two roots
  }
  {
    JsonWriter w(out);
    w.beginObject().key("dangling");
    EXPECT_THROW(w.endObject(), std::logic_error);  // key without value
  }
}

TEST(JsonWriter, PrettyPrintingIndents) {
  std::ostringstream out;
  JsonWriter w(out, /*pretty=*/true);
  w.beginObject().kv("a", 1).endObject();
  EXPECT_EQ(out.str(), "{\n  \"a\": 1\n}");
}

TEST(JsonEmitters, MappingWithAndWithoutMetrics) {
  const auto mapping = IntervalMapping::fromCuts(3, {1, 2}, {1, 0});
  std::ostringstream bare;
  writeMappingJson(bare, mapping, nullptr, /*pretty=*/false);
  EXPECT_EQ(bare.str(),
            R"({"stages":3,"intervals":[{"first":0,"last":1,"processor":1},)"
            R"({"first":2,"last":2,"processor":0}]})"
            "\n");

  Metrics m;
  m.period = 2.5;
  m.latency = 7;
  m.bottleneckInterval = 1;
  std::ostringstream with;
  writeMappingJson(with, mapping, &m, /*pretty=*/false);
  EXPECT_NE(with.str().find(R"("metrics":{"period":2.5,"latency":7,"bottleneckInterval":1})"),
            std::string::npos)
      << with.str();
}

}  // namespace
}  // namespace pipesched::io
