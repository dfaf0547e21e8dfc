// Scoped trace spans and per-request breakdowns. A TraceSpan times one
// pipeline stage RAII-style and records the elapsed time into (a) the
// process-wide per-stage histogram when metrics are enabled and (b) an
// optional per-request RequestTrace when the caller is assembling one.
//
// Stages are defined so that within one request they cover *disjoint*
// intervals of work (the member race and the merge are timed separately, a
// cache hit skips both), which is what makes the invariant
// `stagesTotal() <= totalSeconds` hold by construction rather than by luck.
#pragma once

#include <algorithm>
#include <array>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "pipesched/obs/metrics.hpp"

namespace pipesched::obs {

/// The instrumented stages of a request's life, in pipeline order.
enum class Stage : unsigned char {
  kParse,        ///< JSONL/file text -> Request (source side)
  kFingerprint,  ///< canonical identity walk
  kCacheLookup,  ///< ResultCache probe
  kQueueWait,    ///< stream path: submit -> worker pickup
  kMemberSolve,  ///< portfolio member race (all members, wall time)
  kMerge,        ///< Pareto merge + attribution
  kEmit,         ///< outcome -> sink line
  kCount_,       ///< sentinel
};

inline constexpr std::size_t kStageCount = static_cast<std::size_t>(Stage::kCount_);

[[nodiscard]] const char* stageName(Stage stage) noexcept;

/// The "stage.<name>" nanosecond histogram for one stage, registered on
/// first use. Cheap after the first call (static table of pointers).
Histogram& stageHistogram(Stage stage);

/// Per-request latency breakdown, attached to RequestOutcome when tracing
/// is on. Stage entries are disjoint slices of the request's wall time;
/// `members` additionally breaks the kMemberSolve slice down per portfolio
/// member (they subdivide that one stage, so they are reported separately
/// rather than as stages).
struct RequestTrace {
  double totalSeconds = 0;
  std::array<double, kStageCount> stageSeconds{};
  std::array<std::uint32_t, kStageCount> stageCounts{};
  std::vector<std::pair<std::string, double>> members;  ///< (solver, seconds)

  void add(Stage stage, double seconds) noexcept {
    const auto i = static_cast<std::size_t>(stage);
    stageSeconds[i] += seconds;
    stageCounts[i] += 1;
  }

  /// Sum of all stage slices — always <= totalSeconds for traces assembled
  /// by the pipeline.
  [[nodiscard]] double stagesTotal() const noexcept {
    double total = 0;
    for (const double s : stageSeconds) total += s;
    return total;
  }
};

/// The clock behind every span and stage timestamp. Where the CPU has an
/// invariant time-stamp counter (x86-64), now() reads the counter and
/// scales it by a rate measured once against steady_clock, the first time
/// it is called (a 1 ms calibration). On a 4-core x86-64 VM that read costs
/// about 27 ns against 65-76 ns for steady_clock, and a traced warm cache
/// hit takes three. Elsewhere it is steady_clock.
struct TraceClock {
  using duration = std::chrono::nanoseconds;
  using rep = duration::rep;
  using period = duration::period;
  using time_point = std::chrono::time_point<TraceClock>;
  static constexpr bool is_steady = true;

  [[nodiscard]] static time_point now() noexcept;
};

[[nodiscard]] inline double secondsSince(TraceClock::time_point start) noexcept {
  return std::chrono::duration<double>(TraceClock::now() - start).count();
}

/// RAII stage timer. Inactive (no clock read at all) unless metrics are
/// enabled or a trace is being assembled; destruction records at most once.
class TraceSpan {
 public:
  explicit TraceSpan(Stage stage, RequestTrace* trace = nullptr) noexcept
      : TraceSpan(stage, trace, TraceClock::time_point{}) {}

  /// As above, but starting at `start` unless it is the epoch: a stage that
  /// directly follows another starts where that span stopped (stoppedAt()),
  /// which saves a clock read per stage boundary.
  TraceSpan(Stage stage, RequestTrace* trace, TraceClock::time_point start) noexcept
      : stage_(stage),
        recordHistogram_(metricsEnabled()),
        trace_(trace),
        active_(recordHistogram_ || trace_ != nullptr) {
    if (active_) start_ = start == TraceClock::time_point{} ? TraceClock::now() : start;
  }
  ~TraceSpan() { stop(); }
  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;

  /// Ends the span early and returns its duration in seconds (0 when the
  /// span was inactive). Idempotent; the destructor becomes a no-op.
  double stop() noexcept {
    if (!active_) return 0;
    active_ = false;
    stopped_ = TraceClock::now();
    const TraceClock::rep nanos = std::max<TraceClock::rep>((stopped_ - start_).count(), 0);
    if (recordHistogram_) stageHistogram(stage_).record(static_cast<std::uint64_t>(nanos));
    const double seconds = static_cast<double>(nanos) * 1e-9;
    if (trace_ != nullptr) trace_->add(stage_, seconds);
    return seconds;
  }

  /// When stop() ended the span; the epoch while it runs or when it was
  /// inactive.
  [[nodiscard]] TraceClock::time_point stoppedAt() const noexcept { return stopped_; }

 private:
  Stage stage_;
  bool recordHistogram_;
  RequestTrace* trace_;
  bool active_;
  TraceClock::time_point start_{};
  TraceClock::time_point stopped_{};
};

}  // namespace pipesched::obs
