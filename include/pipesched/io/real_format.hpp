// Shortest-round-trip formatting of Real values, shared by the text and JSON
// writers: the printed form parses back to exactly the same double.
#pragma once

#include <cstddef>
#include <string>

#include "pipesched/core/types.hpp"

namespace pipesched::io {

/// Buffer size that holds any formatReal output (e.g. "-1.2345678901234567e-308").
inline constexpr std::size_t kRealChars = 32;

/// Shortest "%.*g" rendering (fewest significant digits) that parses back to
/// exactly `value`; integral values below 1e15 print as integers ("10", not
/// "1e+01"). Non-finite values format as "inf"/"-inf"/"nan". Writes into
/// `out`, which must hold kRealChars bytes, and returns one past the last
/// byte written (no terminating NUL).
char* formatReal(Real value, char* out);

/// The same bytes as a std::string.
[[nodiscard]] std::string formatReal(Real value);

}  // namespace pipesched::io
