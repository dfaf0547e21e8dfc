// The precision-search formatter io::formatReal replaced: try "%.*g" at
// precisions 1..17 and keep the first that strtod parses back to the value.
// It is the reference io::formatReal must match byte for byte
// (tests/io/test_real_format.cpp). Test- and bench-only.
#pragma once

#include <string>

#include "pipesched/core/types.hpp"

namespace pipesched::oracles {

[[nodiscard]] std::string formatRealLoop(Real value);

}  // namespace pipesched::oracles
