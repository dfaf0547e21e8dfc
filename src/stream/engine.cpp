#include "pipesched/stream/engine.hpp"

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <exception>
#include <map>
#include <mutex>
#include <utility>

#include "pipesched/obs/metrics.hpp"
#include "pipesched/obs/trace.hpp"

namespace pipesched::stream {

namespace {

using Clock = std::chrono::steady_clock;

/// The reorder window between the scheduler's completion callbacks and the
/// sink. Whichever thread completes the head of the line emits it, plus
/// every later outcome that finished ahead of its turn; one emitter at a
/// time, so sink calls stay serialized and in index order.
class Emitter {
 public:
  explicit Emitter(Sink& sink) : sink_(&sink) {}

  /// Completion callback for stream position `index` (any thread).
  void complete(std::size_t index, const service::Request& request,
                const service::RequestOutcome& outcome) {
    std::unique_lock lock(mutex_);
    if (index != next_ || emitting_) {
      // Not its turn yet, or another thread is emitting and will pick it up.
      early_.emplace(index, Early{request, outcome});
      return;
    }
    emitting_ = true;
    emit(lock, request, outcome);
    for (auto it = early_.find(next_); it != early_.end(); it = early_.find(next_)) {
      Early item = std::move(it->second);
      early_.erase(it);
      emit(lock, item.request, item.outcome);
    }
    emitting_ = false;
    // Under the lock: once the pump sees the last position emitted it may
    // return and destroy this emitter.
    progressed_.notify_all();
  }

  /// Blocks until fewer than `window` of the `submitted` requests await
  /// emission.
  void waitBelow(std::size_t submitted, std::size_t window) {
    std::unique_lock lock(mutex_);
    progressed_.wait(lock, [&] { return submitted - next_ < window; });
  }

  /// The first sink exception, if any (emission stops once one is thrown).
  [[nodiscard]] std::exception_ptr error() {
    std::lock_guard lock(mutex_);
    return error_;
  }

  [[nodiscard]] std::size_t emitted() const noexcept { return emitted_; }
  [[nodiscard]] std::size_t failed() const noexcept { return failed_; }

 private:
  struct Early {
    service::Request request;
    service::RequestOutcome outcome;
  };

  /// Emits position next_ with the lock released (the sink may be slow), then
  /// advances. After a sink exception the rest are skipped, not emitted.
  void emit(std::unique_lock<std::mutex>& lock, const service::Request& request,
            const service::RequestOutcome& outcome) {
    const std::size_t index = next_;
    if (!error_) {
      lock.unlock();
      std::exception_ptr thrown;
      try {
        // Registry-only span: the outcome's per-request trace was sealed
        // when the solve completed, so emission cost shows up in stage.emit
        // rather than retroactively inside breakdowns already handed out.
        obs::TraceSpan emitSpan(obs::Stage::kEmit);
        sink_->emit(index, request, outcome);
      } catch (...) {
        thrown = std::current_exception();
      }
      lock.lock();
      if (thrown) {
        error_ = thrown;
      } else {
        ++emitted_;
        if (!outcome.ok) ++failed_;
      }
    }
    ++next_;
  }

  Sink* sink_;
  std::mutex mutex_;
  std::condition_variable progressed_;
  std::map<std::size_t, Early> early_;  ///< finished ahead of their turn
  std::size_t next_ = 0;                ///< next stream position to emit
  bool emitting_ = false;
  std::exception_ptr error_;
  std::size_t emitted_ = 0;
  std::size_t failed_ = 0;
};

}  // namespace

EngineStats runStream(Source& source, Sink& sink, AsyncScheduler& scheduler) {
  const Clock::time_point start = Clock::now();
  EngineStats stats;

  const StreamConfig& config = scheduler.config();
  const std::size_t window =
      config.queueCapacity + std::max<std::size_t>(config.service.threads, 1);

  Emitter emitter(sink);
  std::size_t submitted = 0;
  try {
    for (;;) {
      // Admission control: never hold more than `window` requests between
      // pull and emission — this, not the sink, is what bounds memory.
      emitter.waitBelow(submitted, window);
      if (std::exception_ptr error = emitter.error()) std::rethrow_exception(error);
      std::optional<service::Request> request = source.next();
      if (!request) break;
      const std::size_t index = submitted;
      scheduler.submit(std::move(*request),
                       [&emitter, index](const service::Request& r,
                                         const service::RequestOutcome& outcome) {
                         emitter.complete(index, r, outcome);
                       });
      ++submitted;
    }
    emitter.waitBelow(submitted, 1);
    if (std::exception_ptr error = emitter.error()) std::rethrow_exception(error);
  } catch (...) {
    // A throwing source/sink must not leave submitted work dangling: wait
    // for every accepted request to pass the emitter, then rethrow.
    emitter.waitBelow(submitted, 1);
    throw;
  }

  // Completion callbacks run slightly before the scheduler's completion
  // counters are bumped; drain() waits on the counters, so the snapshot
  // below is settled for everything this pass submitted.
  if (obs::metricsEnabled()) {
    const obs::TraceClock::time_point drainStart = obs::TraceClock::now();
    scheduler.drain();
    static obs::Histogram& drainHist =
        obs::registry().histogram(obs::names::kDrain, obs::Unit::kNanoseconds);
    drainHist.recordSeconds(obs::secondsSince(drainStart));
  } else {
    scheduler.drain();
  }
  stats.requests = emitter.emitted();
  stats.failed = emitter.failed();
  stats.wallSeconds = std::chrono::duration<double>(Clock::now() - start).count();
  if (stats.wallSeconds > 0 && stats.requests > 0) {
    stats.requestsPerSecond = static_cast<double>(stats.requests) / stats.wallSeconds;
  }
  stats.stream = scheduler.snapshot();
  return stats;
}

}  // namespace pipesched::stream
