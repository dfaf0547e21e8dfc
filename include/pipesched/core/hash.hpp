// Stable, platform-independent hashing of model quantities.
//
// The service layer fingerprints whole scheduling requests so identical
// instances dedupe and cache; that only works when the hash of a Real, a
// vector or a string is a pure function of the *values* — never of pointer
// identity, std::hash seeding, or iteration order. This header provides a
// streaming FNV-1a implementation over canonical byte encodings:
//
//   * Real values hash their IEEE-754 bit pattern, with -0.0 canonicalized
//     to +0.0 and every NaN collapsed to one quiet-NaN pattern;
//   * integers hash their little-endian 64-bit widening;
//   * length-prefixed sequences, so ("ab","c") != ("a","bc").
#pragma once

#include <cstdint>
#include <cstring>
#include <string_view>
#include <vector>

#include "pipesched/core/types.hpp"

namespace pipesched::core {

/// Streaming 64-bit FNV-1a hasher over a canonical byte encoding.
class Hasher {
 public:
  static constexpr std::uint64_t kOffsetBasis = 0xcbf29ce484222325ull;
  static constexpr std::uint64_t kPrime = 0x100000001b3ull;

  explicit Hasher(std::uint64_t seed = kOffsetBasis) : state_(seed) {}

  Hasher& bytes(const void* data, std::size_t size) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < size; ++i) {
      state_ ^= p[i];
      state_ *= kPrime;
    }
    return *this;
  }

  Hasher& u64(std::uint64_t v) {
    unsigned char buf[8];
    for (int i = 0; i < 8; ++i) buf[i] = static_cast<unsigned char>(v >> (8 * i));
    return bytes(buf, 8);
  }

  Hasher& size(std::size_t v) { return u64(static_cast<std::uint64_t>(v)); }

  /// Hashes the canonical bit pattern of `v` (see file comment).
  Hasher& real(Real v) {
    if (v == Real(0)) v = Real(0);            // -0.0 -> +0.0
    if (v != v) v = std::numeric_limits<Real>::quiet_NaN();
    std::uint64_t bits = 0;
    static_assert(sizeof(Real) == sizeof(bits));
    std::memcpy(&bits, &v, sizeof(bits));
    return u64(bits);
  }

  /// Length-prefixed, so adjacent sequences cannot alias.
  Hasher& reals(const std::vector<Real>& values) {
    size(values.size());
    for (const Real v : values) real(v);
    return *this;
  }

  Hasher& str(std::string_view text) {
    size(text.size());
    return bytes(text.data(), text.size());
  }

  [[nodiscard]] std::uint64_t digest() const noexcept { return state_; }

 private:
  std::uint64_t state_;
};

/// Fixed-width lowercase hex rendering of a 64-bit hash: writes exactly 16
/// digits at `out`.
void hashHex(std::uint64_t value, char* out);

}  // namespace pipesched::core
