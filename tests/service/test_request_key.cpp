// The binary request key against the hexfloat text key it replaced
// (oracles::requestTextKey): over randomized request pairs, two keys are
// equal exactly when the reference texts are. The pairs cover one-ulp
// nudges of every real field, sweep edits, both comm models, heterogeneous
// link matrices (diagonal edits included, which neither key reads) and
// signed zeros wherever the model accepts a zero. Fingerprint hex values
// are pinned too: every output that prints one must keep its bytes.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <optional>
#include <vector>

#include "pipesched/core/types.hpp"
#include "pipesched/oracles/request_text_key.hpp"
#include "pipesched/service/fingerprint.hpp"
#include "pipesched/workload/scenarios.hpp"

namespace pipesched::service {
namespace {

struct SplitMix {
  std::uint64_t state;
  std::uint64_t next() {
    std::uint64_t z = (state += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
  }
  std::size_t below(std::size_t n) { return static_cast<std::size_t>(next() % n); }
  Real uniform(Real lo, Real hi) {
    return lo + (hi - lo) * static_cast<Real>(next() >> 11) * 0x1.0p-53;
  }
};

/// The raw fields a Request is built from, so a pair can differ in one of
/// them.
struct Spec {
  std::vector<Real> work, comm, speeds;
  bool heterogeneous = false;
  Real bandwidth = 10;
  std::vector<Real> links, in, out;
  core::CommModel model = core::CommModel::kSequential;
  std::size_t points = 24;
  Real range = 3;

  /// The request, or nothing when the model rejects the fields.
  [[nodiscard]] std::optional<Request> build() const {
    try {
      core::Platform platform =
          heterogeneous ? core::Platform::fullyHeterogeneous(speeds, links, in, out)
                        : core::Platform(speeds, bandwidth);
      return Request{core::Pipeline(work, comm), std::move(platform), model,
                     SweepSpec{points, range}, "pair"};
    } catch (const ModelError&) {
      return std::nullopt;
    }
  }
};

/// A zero of random sign, or a value in [lo, hi).
Real zeroOr(SplitMix& rng, Real lo, Real hi) {
  switch (rng.below(4)) {
    case 0: return 0.0;
    case 1: return -0.0;
    default: return rng.uniform(lo, hi);
  }
}

Spec randomSpec(SplitMix& rng) {
  Spec s;
  const std::size_t n = 1 + rng.below(6);
  const std::size_t p = 1 + rng.below(4);
  for (std::size_t i = 0; i < n; ++i) s.work.push_back(rng.uniform(0.5, 20));
  for (std::size_t i = 0; i <= n; ++i) s.comm.push_back(zeroOr(rng, 0, 100));
  for (std::size_t u = 0; u < p; ++u) s.speeds.push_back(1 + static_cast<Real>(rng.below(20)));
  s.heterogeneous = rng.below(2) == 1;
  s.bandwidth = rng.uniform(1, 20);
  for (std::size_t u = 0; u < p; ++u) {
    for (std::size_t v = 0; v < p; ++v) {
      // The diagonal is never read, and the model accepts any value there.
      s.links.push_back(u == v ? zeroOr(rng, 0, 5) : rng.uniform(1, 20));
    }
    s.in.push_back(rng.uniform(1, 20));
    s.out.push_back(rng.uniform(1, 20));
  }
  s.model = rng.below(2) == 1 ? core::CommModel::kOverlapped : core::CommModel::kSequential;
  s.points = 1 + rng.below(40);
  s.range = rng.uniform(1, 4);
  return s;
}

/// One real the key reads, or a link diagonal it does not.
Real& pickReal(Spec& s, SplitMix& rng) {
  std::vector<Real*> fields;
  for (Real& v : s.work) fields.push_back(&v);
  for (Real& v : s.comm) fields.push_back(&v);
  for (Real& v : s.speeds) fields.push_back(&v);
  fields.push_back(&s.range);
  if (s.heterogeneous) {
    for (Real& v : s.links) fields.push_back(&v);
    for (Real& v : s.in) fields.push_back(&v);
    for (Real& v : s.out) fields.push_back(&v);
  } else {
    fields.push_back(&s.bandwidth);
  }
  return *fields[rng.below(fields.size())];
}

/// `a` with one edit: none, a one-ulp nudge, a sign flip of a zero, a sweep
/// edit, a comm-model flip, a platform-kind flip or a link-diagonal edit.
Spec mutate(const Spec& a, SplitMix& rng) {
  Spec b = a;
  const Real inf = std::numeric_limits<Real>::infinity();
  switch (rng.below(8)) {
    case 0:
      break;
    case 1: {
      Real& v = pickReal(b, rng);
      v = std::nextafter(v, rng.below(2) == 1 ? inf : -inf);
      break;
    }
    case 2:
      for (Real& v : b.comm) {
        if (v == 0) v = -v;
      }
      break;
    case 3:
      if (rng.below(2) == 1) {
        b.points += rng.below(3);  // may stay equal
      } else {
        b.range = rng.below(2) == 1 ? std::nextafter(b.range, inf) : a.range;
      }
      break;
    case 4:
      b.model = b.model == core::CommModel::kSequential ? core::CommModel::kOverlapped
                                                        : core::CommModel::kSequential;
      break;
    case 5:
      b.heterogeneous = !b.heterogeneous;
      break;
    case 6: {
      const std::size_t p = b.speeds.size();
      const std::size_t u = rng.below(p);
      b.links[u * p + u] = rng.below(2) == 1 ? -b.links[u * p + u] : rng.uniform(0, 9);
      break;
    }
    default:
      b = randomSpec(rng);
  }
  return b;
}

TEST(RequestKey, EqualExactlyWhenTheHexfloatTextsAreEqual) {
  SplitMix rng{0x6b6579ull};
  std::size_t equal = 0;
  std::size_t different = 0;
  std::size_t pairs = 0;
  while (pairs < 20000) {
    const Spec specA = randomSpec(rng);
    const Spec specB = mutate(specA, rng);
    const std::optional<Request> a = specA.build();
    const std::optional<Request> b = specB.build();
    if (!a || !b) continue;
    ++pairs;
    const bool textsEqual = oracles::requestTextKey(*a) == oracles::requestTextKey(*b);
    const bool keysEqual = requestIdentity(*a).key == requestIdentity(*b).key;
    ASSERT_EQ(keysEqual, textsEqual) << "pair " << pairs << "\n"
                                     << oracles::requestTextKey(*a) << "--- vs ---\n"
                                     << oracles::requestTextKey(*b);
    (textsEqual ? equal : different) += 1;
  }
  // Both outcomes are common, so neither direction is checked by luck.
  EXPECT_GT(equal, 3000u);
  EXPECT_GT(different, 3000u);
}

TEST(RequestKey, SignedZerosSeparateTheKeyButNotTheFingerprint) {
  Spec spec;
  spec.work = {1, 2};
  spec.comm = {0.0, 1, 0.0};
  spec.speeds = {1, 2};
  const Request plus = *spec.build();
  spec.comm[2] = -0.0;
  const Request minus = *spec.build();
  EXPECT_NE(oracles::requestTextKey(plus), oracles::requestTextKey(minus));
  EXPECT_NE(requestIdentity(plus).key, requestIdentity(minus).key);
  // The hash canonicalizes -0 to +0 (core/hash.hpp); only the exact key
  // tells the two apart.
  EXPECT_EQ(requestIdentity(plus).fp, requestIdentity(minus).fp);
}

Request imageRequest() {
  workload::Scenario scenario = workload::imageProcessingScenario();
  return Request{std::move(scenario.pipeline), workload::labCluster(),
                 core::CommModel::kSequential, SweepSpec{}, "base"};
}

Request heterogeneousRequest() {
  Request r = imageRequest();
  std::vector<Real> links(9, 10);
  links[1] = 20;
  r.platform = core::Platform::fullyHeterogeneous({4, 8, 12}, links, {5, 5, 5}, {5, 6, 7});
  r.pipeline = core::Pipeline({1.5, 2, 3.25}, {0, 1, 0.1, 2});
  return r;
}

TEST(RequestKey, FingerprintHexValuesAreUnchanged) {
  const Request base = imageRequest();
  Request overlapped = imageRequest();
  overlapped.model = core::CommModel::kOverlapped;
  Request sweep = imageRequest();
  sweep.sweep = SweepSpec{8, 2.5};
  const Request hetero = heterogeneousRequest();

  EXPECT_EQ(requestIdentity(base).fp.hex(), "944d3d04466d632915622c0cbcfd9cb9");
  EXPECT_EQ(requestIdentity(overlapped).fp.hex(), "b6dccd975398f99872ea818d22134628");
  EXPECT_EQ(requestIdentity(sweep).fp.hex(), "9bd2a17700625e05e172f571cbd5f635");
  EXPECT_EQ(requestIdentity(hetero).fp.hex(), "6fb9a300a617b292d163417beb300302");
  EXPECT_EQ(instanceFingerprint(base).hex(), "7fa58199bd3809de70bb7f7f0ef471ae");
  EXPECT_EQ(instanceFingerprint(hetero).hex(), "eed7c6fc9c646c49ee92596000b693b9");
}

}  // namespace
}  // namespace pipesched::service
