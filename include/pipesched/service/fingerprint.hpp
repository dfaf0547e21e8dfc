// Instance canonicalization + fingerprinting (service dedupe/cache keys).
//
// requestIdentity() derives both identities of a Request from one walk over
// every model-relevant field:
//
//   * key — the exact field bytes: each tag, each element count and each
//     real's IEEE-754 bit pattern, so distinct doubles (+0 and -0 included)
//     never collide. Not meant to be read; used as the collision-free
//     cache/dedupe key.
//   * fp — a 128-bit hash of the same canonical content, used to pick cache
//     shards and as a compact identity in logs and reports.
//
// instanceFingerprint() hashes the sweep-independent part alone. The display
// name is deliberately excluded from both (see request.hpp).
#pragma once

#include <string>

#include "pipesched/service/request.hpp"

namespace pipesched::service {

// struct Fingerprint lives in request.hpp (outcomes carry one); the
// functions that produce it live here.

/// Both identities of one request, produced by a single field walk.
struct RequestIdentity {
  Fingerprint fp;
  std::string key;
};

[[nodiscard]] RequestIdentity requestIdentity(const Request& request);

/// Sweep-independent identity of the request's *instance* (pipeline +
/// platform + communication model, excluding the sweep spec and the display
/// name). Two requests that sweep the same instance with different grids
/// share it — it keys the cross-request sub-result cache, where
/// per-threshold solves are valid for every sweep of the instance.
[[nodiscard]] Fingerprint instanceFingerprint(const Request& request);

/// Exact hexfloat rendering: distinct doubles never share a rendering.
/// describeOutcome and the portfolio's sub-result tags use it.
[[nodiscard]] std::string renderRealHex(Real value);

}  // namespace pipesched::service
