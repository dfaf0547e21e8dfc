#include "pipesched/io/real_format.hpp"

#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstring>

namespace pipesched::io {

namespace {

char* copyLiteral(const char* text, char* out) {
  const std::size_t size = std::strlen(text);
  std::memcpy(out, text, size);
  return out + size;
}

/// Significant digits of the shortest round-trip form of `value`.
int shortestDigits(Real value, char* buf) {
  const char* const end =
      std::to_chars(buf, buf + kRealChars, value, std::chars_format::scientific).ptr;
  int digits = 0;
  for (const char* p = buf; p != end && *p != 'e'; ++p) digits += (*p >= '0' && *p <= '9');
  return digits;
}

}  // namespace

char* formatReal(Real value, char* out) {
  if (std::isnan(value)) return copyLiteral("nan", out);
  if (std::isinf(value)) return copyLiteral(value > 0 ? "inf" : "-inf", out);
  // Integers print as integers ("10", not "1e+01").
  if (value == std::floor(value) && std::abs(value) < 1e15) {
    return out + std::snprintf(out, kRealChars, "%.0f", value);
  }
  // The first precision whose correctly rounded %g form round-trips. No form
  // with fewer significant digits than the shortest round-trip one can
  // round-trip, so the search starts there; it goes on past it only when
  // the shortest digits are not the correctly rounded ones at that precision.
  char* const last = out + kRealChars;
  for (int precision = shortestDigits(value, out);; ++precision) {
    char* const end = std::to_chars(out, last, value, std::chars_format::general, precision).ptr;
    Real back = 0;
    std::from_chars(out, end, back);
    if (back == value || precision >= 17) return end;
  }
}

std::string formatReal(Real value) {
  char buf[kRealChars];
  return std::string(buf, formatReal(value, buf));
}

}  // namespace pipesched::io
