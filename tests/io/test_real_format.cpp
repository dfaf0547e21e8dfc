// io::formatReal against the precision-search loop it replaced
// (oracles::formatRealLoop): byte for byte on over a million finite doubles
// drawn from five families, split into shards so ctest runs them in
// parallel. Each shard also counts the inputs whose shortest round-trip
// digits are not the correctly rounded ones at that precision, the class
// where the search has to go past the shortest digit count.
#include <gtest/gtest.h>

#include <charconv>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <string>

#include "pipesched/io/real_format.hpp"
#include "pipesched/oracles/real_format_loop.hpp"

namespace pipesched::io {
namespace {

constexpr int kShards = 16;
constexpr std::size_t kPerShard = 65536;  // 16 x 65536 = 1,048,576 doubles
/// At least 400 over all shards, so the class is covered on purpose.
constexpr std::size_t kMinLongerPerShard = 400 / kShards;

/// splitmix64: a fixed, portable stream per shard.
struct SplitMix {
  std::uint64_t state;
  std::uint64_t next() {
    std::uint64_t z = (state += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
  }
  double unit() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }  // [0, 1)
  std::uint64_t below(std::uint64_t n) { return next() % n; }
};

/// Draw `i` of a shard: uniform values, values scaled over +-40 decades,
/// random bit patterns, powers of two (some nudged by one ulp) and ratios of
/// small integers, in turn, each with a random sign.
double draw(SplitMix& rng, std::size_t i) {
  double v = 0;
  switch (i % 5) {
    case 0:
      v = rng.unit();
      break;
    case 1:
      v = rng.unit() * std::pow(10.0, static_cast<double>(rng.below(81)) - 40);
      break;
    case 2:
      do {
        const std::uint64_t bits = rng.next();
        std::memcpy(&v, &bits, sizeof v);
      } while (!std::isfinite(v));
      break;
    case 3: {
      v = std::ldexp(1.0, static_cast<int>(rng.below(2098)) - 1074);
      const std::uint64_t nudge = rng.below(3);
      if (nudge == 1) v = std::nextafter(v, 0.0);
      if (nudge == 2) v = std::nextafter(v, std::numeric_limits<double>::infinity());
      break;
    }
    default:
      v = static_cast<double>(rng.below(1000) + 1) / static_cast<double>(rng.below(1000) + 1);
  }
  return (rng.next() & 1) ? -v : v;
}

/// True when the correctly rounded form at the shortest round-trip digit
/// count does not round-trip, so the search must stop above that count.
bool shortestDigitsAreNotCorrectlyRounded(double v) {
  if (v == std::floor(v) && std::abs(v) < 1e15) return false;  // integer branch
  char buf[64];
  const char* end = std::to_chars(buf, buf + sizeof buf, v, std::chars_format::scientific).ptr;
  int digits = 0;
  for (const char* p = buf; p != end && *p != 'e'; ++p) digits += (*p >= '0' && *p <= '9');
  std::snprintf(buf, sizeof buf, "%.*g", digits, v);
  return std::strtod(buf, nullptr) != v;
}

class FormatRealDifferential : public ::testing::TestWithParam<int> {};

TEST_P(FormatRealDifferential, MatchesThePrecisionSearchLoop) {
  SplitMix rng{0x5eed0000ull + static_cast<std::uint64_t>(GetParam())};
  std::size_t mismatches = 0;
  std::size_t longer = 0;
  for (std::size_t i = 0; i < kPerShard; ++i) {
    const double v = draw(rng, i);
    const std::string expected = oracles::formatRealLoop(v);
    const std::string actual = formatReal(v);
    if (actual != expected && ++mismatches <= 5) {
      ADD_FAILURE() << "value " << std::hexfloat << v << ": formatReal " << actual
                    << ", reference " << expected;
    }
    longer += shortestDigitsAreNotCorrectlyRounded(v);
  }
  EXPECT_EQ(mismatches, 0u);
  EXPECT_GE(longer, kMinLongerPerShard);
}

INSTANTIATE_TEST_SUITE_P(Shards, FormatRealDifferential, ::testing::Range(0, kShards));

TEST(FormatReal, EdgeValuesMatchTheReference) {
  const double values[] = {0.0,
                           -0.0,
                           1e15,
                           -1e15,
                           999999999999999.0,
                           1e15 + 0.5,
                           0.1,
                           -0.3,
                           5e-324,
                           -5e-324,
                           2.2250738585072014e-308,
                           2.2250738585072009e-308,
                           1.7976931348623157e308,
                           -1.7976931348623157e308,
                           9007199254740993.0,
                           1.0 / 3.0,
                           2.0 / 3.0,
                           123456.789,
                           1e-5,
                           1e21,
                           5e-5};
  for (const double v : values) {
    EXPECT_EQ(formatReal(v), oracles::formatRealLoop(v)) << std::hexfloat << v;
  }
  EXPECT_EQ(formatReal(std::numeric_limits<double>::infinity()), "inf");
  EXPECT_EQ(formatReal(-std::numeric_limits<double>::infinity()), "-inf");
  EXPECT_EQ(formatReal(std::numeric_limits<double>::quiet_NaN()), "nan");
}

TEST(FormatReal, BufferFormWritesTheSameBytes) {
  for (const double v : {0.1, -1e-300, 42.0, 1.0 / 7.0, -1.7976931348623157e308}) {
    char buf[kRealChars];
    char* end = formatReal(v, buf);
    EXPECT_EQ(std::string(buf, end), formatReal(v));
  }
}

}  // namespace
}  // namespace pipesched::io
