// Cross-request work sharing (ISSUE 4): the instance-keyed sub-result cache
// may only ever SKIP redundant work, never change a result.
//   * differential guarantee — fronts (describeOutcome bytes) are identical
//     with sharing on vs off, serial and pooled, across a warm-sweep workload;
//   * a neighbouring sweep (2P-1 points over the same range) reuses exactly
//     the P thresholds it shares with a cached P-point sweep, plus the
//     members' grid anchors;
//   * refiners warm-start from the base heuristic's cached seed instead of
//     re-running it, with byte-identical refined points;
//   * truncated exact units are never published (a cached unit must stand
//     for the complete computation its key names);
//   * eviction pressure on a tiny sub-cache degrades work saved, never bytes;
//   * the off switch (zero capacity) really is off.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "pipesched/service/service.hpp"
#include "pipesched/workload/generator.hpp"

namespace pipesched::service {
namespace {

workload::InstancePair suiteInstance(std::size_t i, std::size_t stages = 12,
                                     std::size_t processors = 6) {
  static constexpr workload::ExperimentKind kKinds[] = {
      workload::ExperimentKind::kE1BalancedHomComm,
      workload::ExperimentKind::kE2BalancedHetComm,
      workload::ExperimentKind::kE3LargeComputations,
      workload::ExperimentKind::kE4SmallComputations,
  };
  workload::Rng rng(4000 + i);
  return workload::randomInstance(kKinds[i % 4], stages, processors, rng);
}

Request requestFor(std::size_t i, const SweepSpec& sweep, std::size_t stages = 12,
                   std::size_t processors = 6) {
  workload::InstancePair inst = suiteInstance(i, stages, processors);
  return Request{std::move(inst.pipeline), std::move(inst.platform),
                 core::CommModel::kSequential, sweep,
                 "share-" + std::to_string(i) + "@" + std::to_string(sweep.points)};
}

/// The warm-sweep workload: every instance swept at P points, then again at
/// 2P-1 points over the same range — the wider grid's even-indexed
/// thresholds all coincide with the narrow grid's (exact double equality:
/// lo + (hi-lo)*2i/(2P-2) == lo + (hi-lo)*i/(P-1)).
std::vector<Request> warmSweepWorkload(std::size_t instances, std::size_t narrow) {
  std::vector<Request> requests;
  for (std::size_t i = 0; i < instances; ++i) {
    requests.push_back(requestFor(i, SweepSpec{narrow, 3}));
  }
  for (std::size_t i = 0; i < instances; ++i) {
    requests.push_back(requestFor(i, SweepSpec{2 * narrow - 1, 3}));
  }
  return requests;
}

std::string renderAll(SchedulingService& svc, const std::vector<Request>& requests) {
  std::string rendered;
  for (const Request& request : requests) {
    rendered += describeOutcome(svc.solve(request));
  }
  return rendered;
}

ServiceConfig sharedConfig(bool share, std::size_t threads = 0) {
  ServiceConfig config;
  config.threads = threads;
  config.cacheCapacity = 0;  // isolate the sub-result layer from whole hits
  if (!share) config.subCacheCapacity = 0;
  return config;
}

TEST(SubResultShare, FrontsByteIdenticalSharedVsColdSerial) {
  const std::vector<Request> workload = warmSweepWorkload(4, 5);
  SchedulingService shared(sharedConfig(true));
  SchedulingService cold(sharedConfig(false));
  EXPECT_EQ(renderAll(shared, workload), renderAll(cold, workload));
  EXPECT_GT(shared.subCacheStats().hits, 0u);
  EXPECT_EQ(cold.subCacheStats().hits, 0u);
}

TEST(SubResultShare, FrontsByteIdenticalSharedVsColdPooled) {
  // Pooled: the batch path solves different sweeps of the same instance on
  // several threads, publishing and consuming sub-results concurrently.
  const std::vector<Request> workload = warmSweepWorkload(4, 5);
  SchedulingService cold(sharedConfig(false));
  const std::string reference = renderAll(cold, workload);
  SchedulingService sharedPool(sharedConfig(true, 2));
  EXPECT_EQ(renderAll(sharedPool, workload), reference);
  SchedulingService sharedBatch(sharedConfig(true, 4));
  const BatchResult batch = sharedBatch.solveBatch(workload);
  std::string batched;
  for (const RequestOutcome& outcome : batch.outcomes) batched += describeOutcome(outcome);
  EXPECT_EQ(batched, reference);
}

TEST(SubResultShare, WarmSweepReusesExactlyTheSharedThresholds) {
  // n=12, p=6: 72 cells, exact ineligible — the default race is the six
  // sweeping heuristics. A 9-point warm sweep over a cached 5-point sweep
  // shares 5 thresholds per member (ends + every even index) and all six
  // grid anchors.
  const Request narrow = requestFor(0, SweepSpec{5, 3});
  const Request wide = requestFor(0, SweepSpec{9, 3});
  SchedulingService svc(sharedConfig(true));
  const BatchResult coldPass = svc.solveBatch({narrow});
  EXPECT_EQ(coldPass.stats.subHits, 0u);
  const BatchResult warmPass = svc.solveBatch({wide});
  EXPECT_EQ(warmPass.stats.subUnitsReused, 6u * 5u);
  EXPECT_EQ(warmPass.stats.subHits, 6u * 5u + 6u);
  // Per-member accounting matches: each sweeping member reused 5 of 9 units.
  ASSERT_EQ(warmPass.stats.members.size(), 6u);
  for (const MemberBatchStats& m : warmPass.stats.members) {
    EXPECT_EQ(m.reused, 5u) << m.solver;
    EXPECT_EQ(m.seeded, 1u) << m.solver;  // the cached grid anchor
  }
}

TEST(SubResultShare, RefinersWarmStartFromCachedBaseSeeds) {
  // Serial member order is H1, ls:H1, sa:H1: the base member publishes its
  // raw result at every threshold, both refiners consume it (plus the shared
  // grid anchor) instead of re-running H1 — and the refined points must be
  // byte-identical to the re-seeding-from-scratch cold path.
  const SweepSpec sweep{5, 3};
  ServiceConfig config = sharedConfig(true);
  config.portfolio.members = {"H1", "ls:H1", "sa:H1"};
  config.portfolio.annealingMoves = 300;
  ServiceConfig coldConfig = config;
  coldConfig.subCacheCapacity = 0;
  const Request request = requestFor(1, sweep);
  SchedulingService shared(config);
  SchedulingService cold(coldConfig);
  const RequestOutcome warm = shared.solve(request);
  EXPECT_EQ(describeOutcome(warm), describeOutcome(cold.solve(request)));
  ASSERT_EQ(warm.result.solvers.size(), 3u);
  EXPECT_EQ(warm.result.solvers[0].seeded, 0u);              // H1 ran cold
  EXPECT_EQ(warm.result.solvers[1].seeded, sweep.points + 1);  // ls:H1: 5 seeds + anchor
  EXPECT_EQ(warm.result.solvers[2].seeded, sweep.points + 1);  // sa:H1: likewise
  EXPECT_EQ(warm.result.solvers[1].reused, 0u);  // warm-started, not skipped
}

TEST(SubResultShare, TruncatedExactUnitsAreNeverPublished) {
  // With a mapping limit of 1 the exact member truncates; were its (empty)
  // unit published, a warm sweep would report the member completed and the
  // canonical rendering would drift from the cold solve's "exact:0!".
  ServiceConfig config = sharedConfig(true);
  config.portfolio.budget.exactMappingLimit = 1;
  ServiceConfig coldConfig = config;
  coldConfig.subCacheCapacity = 0;
  const Request narrow = requestFor(2, SweepSpec{4, 3}, /*stages=*/4, /*processors=*/3);
  const Request wide = requestFor(2, SweepSpec{7, 3}, /*stages=*/4, /*processors=*/3);
  SchedulingService shared(config);
  SchedulingService cold(coldConfig);
  (void)shared.solve(narrow);
  (void)cold.solve(narrow);
  const RequestOutcome warm = shared.solve(wide);
  EXPECT_EQ(describeOutcome(warm), describeOutcome(cold.solve(wide)));
  EXPECT_TRUE(warm.result.budgetExhausted);
}

TEST(SubResultShare, EvictionPressureDegradesWorkSavedNeverBytes) {
  const std::vector<Request> workload = warmSweepWorkload(3, 5);
  ServiceConfig tiny = sharedConfig(true);
  tiny.subCacheCapacity = 8;  // constant eviction churn
  SchedulingService small(tiny);
  SchedulingService cold(sharedConfig(false));
  EXPECT_EQ(renderAll(small, workload), renderAll(cold, workload));
  EXPECT_GT(small.subCacheStats().evictions, 0u);
}

TEST(SubResultShare, OffSwitchesReallyDisableTheSubCache) {
  const std::vector<Request> workload = warmSweepWorkload(2, 5);
  SchedulingService offSvc(sharedConfig(false));
  for (const Request& r : workload) (void)offSvc.solve(r);
  const CacheStats stats = offSvc.subCacheStats();
  EXPECT_EQ(stats.hits + stats.misses + stats.insertions, 0u);
}

TEST(SubResultShare, InstanceIdentityIsSweepIndependent) {
  const Request narrow = requestFor(0, SweepSpec{5, 3});
  Request wide = requestFor(0, SweepSpec{9, 2});
  wide.name = "another label";
  // Same instance, different sweep + name: one sub-result identity, two
  // whole-result identities.
  EXPECT_EQ(instanceFingerprint(narrow), instanceFingerprint(wide));
  EXPECT_NE(requestIdentity(narrow).key, requestIdentity(wide).key);
  // Different instance or comm model: different identity.
  const Request other = requestFor(1, SweepSpec{5, 3});
  EXPECT_NE(instanceFingerprint(narrow), instanceFingerprint(other));
  Request overlapped = requestFor(0, SweepSpec{5, 3});
  overlapped.model = core::CommModel::kOverlapped;
  EXPECT_NE(instanceFingerprint(narrow), instanceFingerprint(overlapped));
}

}  // namespace
}  // namespace pipesched::service
