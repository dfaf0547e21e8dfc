// The streaming engine end to end: stream-vs-batch byte-identity across
// worker counts and queue capacities, strict input-order emission, emission
// that never waits on the next pull, the bounded-memory window (instrumented
// at the Source/Sink seam), failure pass-through, and cross-pass cache reuse.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <mutex>
#include <sstream>
#include <string>
#include <vector>

#include "pipesched/stream/engine.hpp"
#include "pipesched/workload/generator.hpp"
#include "pipesched/workload/scenarios.hpp"

namespace pipesched::stream {
namespace {

/// Named scenarios plus one generated instance per regime — the mix the
/// acceptance criteria call out for the equivalence test.
std::vector<service::Request> mixedRequests(std::uint64_t seed, std::size_t points = 6) {
  const service::SweepSpec sweep{points, 3};
  std::vector<service::Request> requests;
  const core::Platform lab = workload::labCluster();
  for (workload::Scenario& scenario : workload::allScenarios()) {
    requests.push_back(service::Request{std::move(scenario.pipeline), lab,
                                        core::CommModel::kSequential, sweep, scenario.name});
  }
  const workload::ExperimentKind kinds[] = {
      workload::ExperimentKind::kE1BalancedHomComm,
      workload::ExperimentKind::kE2BalancedHetComm,
      workload::ExperimentKind::kE3LargeComputations,
      workload::ExperimentKind::kE4SmallComputations,
  };
  workload::Rng rng(seed);
  for (const workload::ExperimentKind kind : kinds) {
    workload::InstancePair pair = workload::randomInstance(kind, 7, 4, rng);
    std::ostringstream name;
    name << workload::experimentName(kind) << "-stream";
    requests.push_back(service::Request{std::move(pair.pipeline), std::move(pair.platform),
                                        core::CommModel::kSequential, sweep, name.str()});
  }
  return requests;
}

TEST(StreamEngine, OutcomesAreByteIdenticalToSolveBatchAcrossConfigs) {
  const std::vector<service::Request> requests = mixedRequests(11);

  // The batch reference: the serial solveBatch path.
  service::ServiceConfig serialConfig;
  serialConfig.threads = 0;
  serialConfig.cacheCapacity = 0;
  service::SchedulingService reference(serialConfig);
  const service::BatchResult batch = reference.solveBatch(requests);
  ASSERT_EQ(batch.stats.failed, 0u);

  struct Config {
    std::size_t workers;
    std::size_t queueCapacity;
  };
  // The acceptance grid: workers 0/2/4, capacities from minimal to roomy.
  const Config configs[] = {{0, 1}, {2, 1}, {2, 4}, {4, 2}, {4, 64}};
  for (const Config& cfg : configs) {
    StreamConfig config;
    config.service.threads = cfg.workers;
    config.queueCapacity = cfg.queueCapacity;
    AsyncScheduler scheduler(config);
    VectorSource source(requests);
    CollectSink sink;
    const EngineStats stats = runStream(source, sink, scheduler);

    EXPECT_EQ(stats.requests, requests.size());
    EXPECT_EQ(stats.failed, 0u);
    ASSERT_EQ(sink.items.size(), requests.size());
    for (std::size_t i = 0; i < requests.size(); ++i) {
      EXPECT_EQ(service::describeOutcome(sink.items[i].outcome),
                service::describeOutcome(batch.outcomes[i]))
          << "workers=" << cfg.workers << " capacity=" << cfg.queueCapacity << " slot " << i;
    }
  }
}

TEST(StreamEngine, EmissionIsInInputOrder) {
  StreamConfig config;
  config.service.threads = 4;
  config.queueCapacity = 2;
  AsyncScheduler scheduler(config);
  VectorSource source(mixedRequests(13, 4));
  CollectSink sink;
  (void)runStream(source, sink, scheduler);
  for (std::size_t i = 0; i < sink.items.size(); ++i) {
    EXPECT_EQ(sink.items[i].index, i);
  }
}

/// Instruments the pull-to-emit window: counts requests that have been
/// pulled from the inner source but not yet emitted. Pulls happen on the
/// pump thread and emits on whichever thread completes the head of the
/// line, so the live count is atomic; only the pump reads the high-water.
class CountingSource : public Source {
 public:
  explicit CountingSource(Source& inner) : inner_(&inner) {}

  std::optional<service::Request> next() override {
    std::optional<service::Request> request = inner_->next();
    if (request) maxLive_ = std::max(maxLive_, ++live_);
    return request;
  }

  void onEmit() { --live_; }
  [[nodiscard]] std::size_t maxLive() const noexcept { return maxLive_; }

 private:
  Source* inner_;
  std::atomic<std::size_t> live_{0};
  std::size_t maxLive_ = 0;
};

class CountingSink : public Sink {
 public:
  explicit CountingSink(CountingSource& source) : source_(&source) {}

  void emit(std::size_t, const service::Request&, const service::RequestOutcome&) override {
    source_->onEmit();
    ++emitted_;
  }

  [[nodiscard]] std::size_t emitted() const noexcept { return emitted_; }

 private:
  CountingSource* source_;
  std::size_t emitted_ = 0;
};

TEST(StreamEngine, NeverHoldsMoreThanQueuePlusInFlightRequests) {
  // 40 requests through a capacity-2 queue with 2 workers: at no point may
  // more than capacity + workers + 1 requests exist between pull and emit —
  // lazy ingestion and incremental emission, not a disguised batch load.
  GeneratorSource::Spec spec;
  spec.kind = workload::ExperimentKind::kE1BalancedHomComm;
  spec.count = 40;
  spec.stages = 4;
  spec.processors = 3;
  spec.seed = 99;
  spec.sweep = service::SweepSpec{3, 3};
  GeneratorSource generator(spec);
  CountingSource source(generator);
  CountingSink sink(source);

  StreamConfig config;
  config.service.threads = 2;
  config.queueCapacity = 2;
  AsyncScheduler scheduler(config);
  const EngineStats stats = runStream(source, sink, scheduler);

  EXPECT_EQ(stats.requests, 40u);
  EXPECT_EQ(sink.emitted(), 40u);
  const std::size_t window = config.queueCapacity + config.service.threads;
  EXPECT_LE(source.maxLive(), window + 1);
  // The scheduler's own high-water can additionally lag by up to one
  // uncounted completion per worker (futures become ready just before the
  // completion counters are bumped), so its bound is window + workers.
  EXPECT_LE(stats.stream.maxInFlight, window + config.service.threads);
}

TEST(StreamEngine, EmitsAFinishedOutcomeWhileTheSourceWaitsForTheNextLine) {
  // The interactive client: it sends one line, then waits for that line's
  // answer before sending the next. The source's second next() therefore
  // blocks until the sink has seen outcome 0 — bounded, so an engine that
  // emits only after the next pull fails here instead of hanging.
  struct Handshake {
    std::mutex mutex;
    std::condition_variable cv;
    bool emitted0 = false;
  } handshake;

  class WaitingSource : public Source {
   public:
    WaitingSource(std::vector<service::Request> requests, Handshake& handshake)
        : requests_(std::move(requests)), handshake_(&handshake) {}
    std::optional<service::Request> next() override {
      if (cursor_ == 1) {
        std::unique_lock lock(handshake_->mutex);
        sawAnswerFirst = handshake_->cv.wait_for(lock, std::chrono::seconds(10),
                                                 [&] { return handshake_->emitted0; });
      }
      if (cursor_ >= requests_.size()) return std::nullopt;
      return requests_[cursor_++];
    }
    bool sawAnswerFirst = false;

   private:
    std::vector<service::Request> requests_;
    Handshake* handshake_;
    std::size_t cursor_ = 0;
  };

  class SignallingSink : public Sink {
   public:
    explicit SignallingSink(Handshake& handshake) : handshake_(&handshake) {}
    void emit(std::size_t index, const service::Request&,
              const service::RequestOutcome&) override {
      indices.push_back(index);
      std::lock_guard lock(handshake_->mutex);
      if (index == 0) handshake_->emitted0 = true;
      handshake_->cv.notify_all();
    }
    std::vector<std::size_t> indices;

   private:
    Handshake* handshake_;
  };

  for (const std::size_t workers : {std::size_t{0}, std::size_t{1}, std::size_t{2}}) {
    handshake.emitted0 = false;
    StreamConfig config;
    config.service.threads = workers;
    config.queueCapacity = 4;
    AsyncScheduler scheduler(config);
    WaitingSource source(mixedRequests(29, 3), handshake);
    SignallingSink sink(handshake);
    const EngineStats stats = runStream(source, sink, scheduler);
    EXPECT_TRUE(source.sawAnswerFirst) << "workers=" << workers;
    EXPECT_EQ(stats.requests, sink.indices.size());
    for (std::size_t i = 0; i < sink.indices.size(); ++i) EXPECT_EQ(sink.indices[i], i);
  }
}

TEST(StreamEngine, FailuresFlowToTheSinkInPlace) {
  std::vector<service::Request> requests = mixedRequests(17, 4);
  requests[2].sweep.points = 0;  // fails in the portfolio
  StreamConfig config;
  config.service.threads = 2;
  config.queueCapacity = 4;
  AsyncScheduler scheduler(config);
  VectorSource source(requests);
  CollectSink sink;
  const EngineStats stats = runStream(source, sink, scheduler);
  EXPECT_EQ(stats.failed, 1u);
  ASSERT_EQ(sink.items.size(), requests.size());
  EXPECT_FALSE(sink.items[2].outcome.ok);
  EXPECT_FALSE(sink.items[2].outcome.error.empty());
  for (std::size_t i = 0; i < sink.items.size(); ++i) {
    if (i == 2) continue;
    EXPECT_TRUE(sink.items[i].outcome.ok) << "slot " << i;
  }
}

TEST(StreamEngine, SecondPassThroughTheSameSchedulerHitsTheCache) {
  const std::vector<service::Request> requests = mixedRequests(19, 4);
  StreamConfig config;
  config.service.threads = 2;
  config.queueCapacity = 4;
  AsyncScheduler scheduler(config);

  VectorSource first(requests);
  CollectSink coldSink;
  const EngineStats cold = runStream(first, coldSink, scheduler);
  EXPECT_EQ(cold.stream.cacheHits, 0u);

  VectorSource second(requests);
  CollectSink warmSink;
  const EngineStats warm = runStream(second, warmSink, scheduler);
  EXPECT_EQ(warm.stream.cacheHits, requests.size());  // cumulative snapshot: all pass-2

  ASSERT_EQ(coldSink.items.size(), warmSink.items.size());
  for (std::size_t i = 0; i < coldSink.items.size(); ++i) {
    EXPECT_EQ(service::describeOutcome(coldSink.items[i].outcome),
              service::describeOutcome(warmSink.items[i].outcome))
        << "slot " << i;
  }
}

TEST(StreamEngine, AThrowingSourceDrainsInFlightWorkBeforePropagating) {
  class ThrowingSource : public Source {
   public:
    explicit ThrowingSource(std::vector<service::Request> head) : head_(std::move(head)) {}
    std::optional<service::Request> next() override {
      if (cursor_ < head_.size()) return head_[cursor_++];
      throw std::runtime_error("disk fell off");
    }

   private:
    std::vector<service::Request> head_;
    std::size_t cursor_ = 0;
  };

  StreamConfig config;
  config.service.threads = 2;
  config.queueCapacity = 4;
  AsyncScheduler scheduler(config);
  ThrowingSource source(mixedRequests(23, 3));
  CollectSink sink;
  EXPECT_THROW((void)runStream(source, sink, scheduler), std::runtime_error);
  // Nothing is left dangling: the scheduler settles immediately.
  scheduler.drain();
  const StreamStats stats = scheduler.snapshot();
  EXPECT_EQ(stats.completed, stats.submitted);
}

}  // namespace
}  // namespace pipesched::stream
