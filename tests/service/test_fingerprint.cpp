// Canonicalization + fingerprinting: identical requests collide, any
// model-relevant difference separates, presentation fields don't matter.
#include <gtest/gtest.h>

#include "pipesched/core/hash.hpp"
#include "pipesched/service/fingerprint.hpp"
#include "pipesched/workload/scenarios.hpp"

namespace pipesched::service {
namespace {

std::string key(const Request& request) { return requestIdentity(request).key; }
Fingerprint fp(const Request& request) { return requestIdentity(request).fp; }

Request baseRequest() {
  workload::Scenario scenario = workload::imageProcessingScenario();
  return Request{std::move(scenario.pipeline), workload::labCluster(),
                 core::CommModel::kSequential, SweepSpec{}, "base"};
}

TEST(Fingerprint, IdenticalRequestsShareKeyAndHash) {
  const Request a = baseRequest();
  const Request b = baseRequest();
  EXPECT_EQ(key(a), key(b));
  EXPECT_EQ(fp(a), fp(b));
}

TEST(Fingerprint, NameIsExcluded) {
  const Request a = baseRequest();
  Request b = baseRequest();
  b.name = "a completely different label";
  EXPECT_EQ(key(a), key(b));
  EXPECT_EQ(fp(a), fp(b));
}

TEST(Fingerprint, PipelineChangesSeparate) {
  const Request a = baseRequest();
  Request b = baseRequest();
  std::vector<Real> work = b.pipeline.works();
  std::vector<Real> comm = b.pipeline.comms();
  work[0] += 1;
  b.pipeline = core::Pipeline(work, comm);
  EXPECT_NE(key(a), key(b));
  EXPECT_NE(fp(a), fp(b));
}

TEST(Fingerprint, PlatformChangesSeparate) {
  const Request a = baseRequest();
  Request b = baseRequest();
  std::vector<Real> speeds = b.platform.speeds();
  speeds[0] += 1;
  b.platform = core::Platform(speeds, b.platform.bandwidth());
  EXPECT_NE(fp(a), fp(b));
}

TEST(Fingerprint, CommModelSeparates) {
  const Request a = baseRequest();
  Request b = baseRequest();
  b.model = core::CommModel::kOverlapped;
  EXPECT_NE(key(a), key(b));
  EXPECT_NE(fp(a), fp(b));
}

TEST(Fingerprint, SweepSpecSeparates) {
  const Request a = baseRequest();
  Request points = baseRequest();
  points.sweep.points += 1;
  Request range = baseRequest();
  range.sweep.range += 0.5;
  EXPECT_NE(fp(a), fp(points));
  EXPECT_NE(fp(a), fp(range));
  EXPECT_NE(fp(points), fp(range));
}

TEST(Fingerprint, HeterogeneousPlatformIsCovered) {
  Request a = baseRequest();
  const std::size_t p = 3;
  std::vector<Real> speeds = {4, 8, 12};
  std::vector<Real> links(p * p, 10);
  std::vector<Real> inBw(p, 5);
  std::vector<Real> outBw(p, 5);
  a.platform = core::Platform::fullyHeterogeneous(speeds, links, inBw, outBw);
  Request b = a;
  links[1] = 20;  // P0 -> P1 link only
  b.platform = core::Platform::fullyHeterogeneous(speeds, links, inBw, outBw);
  EXPECT_NE(key(a), key(b));
  EXPECT_NE(fp(a), fp(b));
}

TEST(Fingerprint, InstanceIdentityExcludesSweepButNotModelContent) {
  const Request a = baseRequest();
  Request sweepOnly = baseRequest();
  sweepOnly.sweep.points += 8;
  sweepOnly.sweep.range += 1;
  // Sweep changes separate the request identity but not the instance one.
  EXPECT_NE(fp(a), fp(sweepOnly));
  EXPECT_EQ(instanceFingerprint(a), instanceFingerprint(sweepOnly));
  // Model content still separates.
  Request overlapped = baseRequest();
  overlapped.model = core::CommModel::kOverlapped;
  EXPECT_NE(instanceFingerprint(a), instanceFingerprint(overlapped));
  // The two identity families can never collide (distinct version tags).
  EXPECT_NE(instanceFingerprint(a), fp(a));
}

TEST(Fingerprint, HexIs32LowercaseDigits) {
  const std::string hex = fp(baseRequest()).hex();
  ASSERT_EQ(hex.size(), 32u);
  for (const char c : hex) {
    EXPECT_TRUE((c >= '0' && c <= '9') || (c >= 'a' && c <= 'f')) << hex;
  }
}

TEST(Hash, RealCanonicalization) {
  core::Hasher plusZero;
  plusZero.real(Real(0));
  core::Hasher minusZero;
  minusZero.real(Real(-0.0));
  EXPECT_EQ(plusZero.digest(), minusZero.digest());

  core::Hasher a;
  a.real(1.5);
  core::Hasher b;
  b.real(1.5000000001);
  EXPECT_NE(a.digest(), b.digest());
}

TEST(Hash, LengthPrefixPreventsSequenceAliasing) {
  core::Hasher a;
  a.reals({1, 2});
  a.reals({3});
  core::Hasher b;
  b.reals({1});
  b.reals({2, 3});
  EXPECT_NE(a.digest(), b.digest());
}

}  // namespace
}  // namespace pipesched::service
