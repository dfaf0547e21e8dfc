#include "pipesched/oracles/real_format_loop.hpp"

#include <cmath>
#include <cstdio>
#include <cstdlib>

namespace pipesched::oracles {

std::string formatRealLoop(Real value) {
  if (std::isnan(value)) return "nan";
  if (std::isinf(value)) return value > 0 ? "inf" : "-inf";
  char buf[40];
  // Integers print as integers ("10", not "1e+01").
  if (value == std::floor(value) && std::abs(value) < 1e15) {
    std::snprintf(buf, sizeof buf, "%.0f", value);
    return buf;
  }
  for (int precision = 1; precision <= 17; ++precision) {
    std::snprintf(buf, sizeof buf, "%.*g", precision, value);
    if (std::strtod(buf, nullptr) == value) break;
  }
  return buf;
}

}  // namespace pipesched::oracles
