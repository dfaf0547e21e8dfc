// Demo of the async streaming engine: a chained lazy source (named scenarios
// + a generated E2 suite) pumped through AsyncScheduler into an incremental
// JSONL sink, then the future- and callback-based submission paths used
// directly — the API a network front-end would sit on.
#include <iostream>

#include "pipesched/stream/engine.hpp"
#include "pipesched/workload/generator.hpp"

int main() {
  using namespace pipesched;

  const service::SweepSpec sweep{12, 3};

  // 1) Source -> engine -> sink. Requests are materialized one at a time
  //    (the generator source builds instances on demand) and every outcome
  //    line is printed as soon as its turn completes — watch the output
  //    appear while later requests are still solving.
  stream::GeneratorSource::Spec spec;
  spec.kind = workload::ExperimentKind::kE2BalancedHetComm;
  spec.count = 6;
  spec.stages = 8;
  spec.processors = 5;
  spec.sweep = sweep;
  std::vector<std::unique_ptr<stream::Source>> parts;
  parts.push_back(std::make_unique<stream::ScenarioSource>(sweep, core::CommModel::kSequential));
  parts.push_back(std::make_unique<stream::GeneratorSource>(spec));
  stream::ChainSource source(std::move(parts));

  stream::StreamConfig config;
  config.service.threads = 2;
  config.queueCapacity = 4;
  stream::AsyncScheduler scheduler(config);
  stream::JsonlSink sink(std::cout);
  const stream::EngineStats stats = stream::runStream(source, sink, scheduler);

  std::cerr << "engine: " << stats.requests << " requests in " << stats.wallSeconds << " s ("
            << stats.requestsPerSecond << " req/s), backpressure waits "
            << stats.stream.queue.pushWaits << ", max in flight " << stats.stream.maxInFlight
            << "\n";

  // 2) The submission API itself. submit() returns a future immediately...
  workload::Rng rng(7);
  workload::InstancePair pair =
      workload::randomInstance(workload::ExperimentKind::kE3LargeComputations, 8, 5, rng);
  service::Request request{pair.pipeline, pair.platform, core::CommModel::kSequential, sweep,
                           "future-demo"};
  std::future<service::RequestOutcome> future = scheduler.submit(request);
  // ... and the callback form completes on a worker thread.
  scheduler.submit(request, [](const service::Request& r, const service::RequestOutcome& o) {
    std::cerr << "callback: " << r.name << " -> "
              << (o.ok ? std::to_string(o.result.front.size()) + "-point front" : o.error)
              << (o.deduped ? " (coalesced)" : o.fromCache ? " (cache)" : "") << "\n";
  });

  const service::RequestOutcome outcome = future.get();
  std::cerr << "future:   " << request.name << " -> "
            << (outcome.ok ? std::to_string(outcome.result.front.size()) + "-point front"
                           : outcome.error)
            << "\n";
  scheduler.drain();

  const stream::StreamStats s = scheduler.snapshot();
  std::cerr << "totals: " << s.completed << " completed = " << s.solved << " solved + "
            << s.cacheHits << " cache hits + " << s.coalesced << " coalesced + " << s.failed
            << " failed\n";
  return 0;
}
