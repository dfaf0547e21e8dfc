#include "pipesched/core/hash.hpp"

namespace pipesched::core {

void hashHex(std::uint64_t value, char* out) {
  static const char* digits = "0123456789abcdef";
  for (int i = 15; i >= 0; --i) {
    out[i] = digits[value & 0xF];
    value >>= 4;
  }
}

}  // namespace pipesched::core
