// pipesched::obs — process-wide observability primitives: runtime switches,
// monotonic counters, gauges, and fixed-bucket latency histograms with
// quantile extraction, collected behind a lazily-populated named registry.
//
// Design constraints (the solve/serve hot paths run at ~100k req/s warm):
//  - Disabled path: every instrumentation site reduces to one relaxed atomic
//    load and a branch — no clock reads, no allocation, no locking.
//  - Enabled path: recording is a handful of relaxed atomic adds. Name
//    lookup takes the registry mutex, so call sites cache the returned
//    reference (function-local static) — metric objects are pointer-stable
//    for the life of the process.
//  - Histograms use power-of-two buckets over uint64 values (nanoseconds for
//    time, raw magnitudes for depths/counts): exact counts and integer sums,
//    so concurrent recording is deterministic up to bucket resolution.
#pragma once

#include <array>
#include <atomic>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <mutex>
#include <string>
#include <vector>

namespace pipesched::io {
class JsonWriter;
}

namespace pipesched::obs {

// ---------------------------------------------------------------------------
// Runtime switches. Metrics gate registry recording; tracing gates
// per-request breakdown assembly. Both default off, so an uninstrumented
// process pays only the flag loads.
// ---------------------------------------------------------------------------

[[nodiscard]] bool metricsEnabled() noexcept;
void setMetricsEnabled(bool on) noexcept;

[[nodiscard]] bool tracingEnabled() noexcept;
void setTracingEnabled(bool on) noexcept;

/// RAII flag setters for CLI commands and tests: the CLI is re-entered
/// in-process (tests call runCli repeatedly), so flags must never leak past
/// the command that set them.
class ScopedMetricsEnabled {
 public:
  explicit ScopedMetricsEnabled(bool on) : previous_(metricsEnabled()) { setMetricsEnabled(on); }
  ~ScopedMetricsEnabled() { setMetricsEnabled(previous_); }
  ScopedMetricsEnabled(const ScopedMetricsEnabled&) = delete;
  ScopedMetricsEnabled& operator=(const ScopedMetricsEnabled&) = delete;

 private:
  bool previous_;
};

class ScopedTracingEnabled {
 public:
  explicit ScopedTracingEnabled(bool on) : previous_(tracingEnabled()) { setTracingEnabled(on); }
  ~ScopedTracingEnabled() { setTracingEnabled(previous_); }
  ScopedTracingEnabled(const ScopedTracingEnabled&) = delete;
  ScopedTracingEnabled& operator=(const ScopedTracingEnabled&) = delete;

 private:
  bool previous_;
};

// ---------------------------------------------------------------------------
// Primitives.
// ---------------------------------------------------------------------------

/// Monotonic event count. Relaxed ordering: totals are exact once writers
/// quiesce; a mid-flight snapshot may trail individual writers but never
/// invents events.
class Counter {
 public:
  void add(std::uint64_t n = 1) noexcept { value_.fetch_add(n, std::memory_order_relaxed); }
  [[nodiscard]] std::uint64_t value() const noexcept {
    return value_.load(std::memory_order_relaxed);
  }
  void reset() noexcept { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> value_{0};
};

/// Instantaneous signed level (queue depth, in-flight requests).
class Gauge {
 public:
  void set(std::int64_t v) noexcept { value_.store(v, std::memory_order_relaxed); }
  void add(std::int64_t d) noexcept { value_.fetch_add(d, std::memory_order_relaxed); }
  [[nodiscard]] std::int64_t value() const noexcept {
    return value_.load(std::memory_order_relaxed);
  }
  void reset() noexcept { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<std::int64_t> value_{0};
};

/// What a histogram's recorded values mean — controls JSON rendering only.
enum class Unit : unsigned char { kCount, kNanoseconds };

[[nodiscard]] const char* unitName(Unit unit) noexcept;

/// Bucket count for all histograms. Bucket 0 holds exact zeros; bucket i>0
/// covers [2^(i-1), 2^i - 1]; the last bucket absorbs everything above
/// 2^(kHistogramBuckets-2) (~70k seconds when recording nanoseconds).
inline constexpr std::size_t kHistogramBuckets = 48;

/// Value-type copy of a histogram's state: mergeable across shards and
/// cheap to reason about in tests.
struct HistogramSnapshot {
  Unit unit = Unit::kCount;
  std::uint64_t count = 0;
  std::uint64_t sum = 0;  ///< exact integer sum of recorded values
  std::array<std::uint64_t, kHistogramBuckets> buckets{};

  /// Adds another snapshot's buckets/count/sum into this one. Merging shard
  /// snapshots is exactly equivalent to recording into one histogram.
  void merge(const HistogramSnapshot& other);

  [[nodiscard]] double mean() const noexcept;

  /// Quantile estimate for q in (0, 1]: locates the bucket containing the
  /// element of rank max(1, ceil(q*count)) and interpolates linearly within
  /// it. The result always lies within [lo, hi+1] of the bucket holding the
  /// exact order statistic, which is what the sorted-reference tests check.
  [[nodiscard]] double quantile(double q) const noexcept;
};

/// Fixed-bucket, lock-free histogram. Recording is two relaxed fetch_adds.
class Histogram {
 public:
  explicit Histogram(Unit unit = Unit::kCount) noexcept : unit_(unit) {}

  void record(std::uint64_t value) noexcept {
    buckets_[bucketIndex(value)].fetch_add(1, std::memory_order_relaxed);
    sum_.fetch_add(value, std::memory_order_relaxed);
  }

  /// Convenience for Unit::kNanoseconds histograms: converts non-negative
  /// seconds to integer nanoseconds.
  void recordSeconds(double seconds) noexcept {
    record(seconds > 0 ? static_cast<std::uint64_t>(seconds * 1e9) : 0);
  }

  [[nodiscard]] Unit unit() const noexcept { return unit_; }
  [[nodiscard]] HistogramSnapshot snapshot() const;
  void reset() noexcept;

  [[nodiscard]] static std::size_t bucketIndex(std::uint64_t value) noexcept {
    if (value == 0) return 0;
    const auto width = static_cast<std::size_t>(std::bit_width(value));
    return width < kHistogramBuckets - 1 ? width : kHistogramBuckets - 1;
  }
  /// Inclusive value range covered by bucket `index`.
  [[nodiscard]] static std::uint64_t bucketLow(std::size_t index) noexcept;
  [[nodiscard]] static std::uint64_t bucketHigh(std::size_t index) noexcept;

 private:
  std::array<std::atomic<std::uint64_t>, kHistogramBuckets> buckets_{};
  std::atomic<std::uint64_t> sum_{0};
  Unit unit_;
};

// ---------------------------------------------------------------------------
// Registry.
// ---------------------------------------------------------------------------

/// Point-in-time copy of every registered metric, in registration order.
struct Snapshot {
  struct CounterRow {
    std::string name;
    std::uint64_t value = 0;
  };
  struct GaugeRow {
    std::string name;
    std::int64_t value = 0;
  };
  struct HistogramRow {
    std::string name;
    HistogramSnapshot hist;
  };
  std::vector<CounterRow> counters;
  std::vector<GaugeRow> gauges;
  std::vector<HistogramRow> histograms;
};

/// Named metric store. The mutex is taken only at registration/lookup and
/// snapshot time — never while recording. Metric objects live in deques, so
/// references handed out stay valid as later metrics register.
class Registry {
 public:
  /// Finds or creates the named metric. References remain valid for the
  /// registry's lifetime — cache them at hot call sites.
  Counter& counter(const std::string& name);
  Gauge& gauge(const std::string& name);
  Histogram& histogram(const std::string& name, Unit unit = Unit::kCount);

  [[nodiscard]] Snapshot snapshot() const;

  /// Zeroes every metric's value; names stay registered.
  void reset();

 private:
  struct CounterRow {
    explicit CounterRow(std::string n) : name(std::move(n)) {}
    std::string name;
    Counter metric;
  };
  struct GaugeRow {
    explicit GaugeRow(std::string n) : name(std::move(n)) {}
    std::string name;
    Gauge metric;
  };
  struct HistogramRow {
    HistogramRow(std::string n, Unit unit) : name(std::move(n)), metric(unit) {}
    std::string name;
    Histogram metric;
  };

  mutable std::mutex mutex_;
  std::deque<CounterRow> counters_;
  std::deque<GaugeRow> gauges_;
  std::deque<HistogramRow> histograms_;
};

/// The process-wide registry every instrumentation site records into.
Registry& registry();

/// Canonical metric names outside the per-stage histograms (those are
/// "stage.<stageName>", see trace.hpp). Kept here so emitters, the `stats`
/// command, and preregistration agree on spelling.
namespace names {
inline constexpr const char* kQueueDepth = "stream.queue_depth";
inline constexpr const char* kDrain = "stream.drain";
inline constexpr const char* kCoalesced = "stream.coalesced";
inline constexpr const char* kMemberRun = "portfolio.member_run";
inline constexpr const char* kRequestsSolved = "service.requests_solved";
inline constexpr const char* kRequestsCacheHit = "service.requests_cache_hit";
inline constexpr const char* kRequestsFailed = "service.requests_failed";
/// Malformed ingestion lines (JSONL request protocol); errored lines also
/// record their wall time into the stage.parse histogram.
inline constexpr const char* kParseErrors = "parse.errors";
inline constexpr const char* kDeltaPeeks = "eval.delta.peeks";
inline constexpr const char* kDeltaApplies = "eval.delta.applies";
inline constexpr const char* kDeltaReplaces = "eval.delta.replaces";
inline constexpr const char* kDeltaUndos = "eval.delta.undos";
// Network transport (pipesched::net). Connection lifecycle counters, byte
// counters, admission-control sheds, and the drain-state gauge /healthz
// reports. Per-endpoint latency histograms are "net.endpoint.<name>".
inline constexpr const char* kNetAccepted = "net.connections_accepted";
inline constexpr const char* kNetActive = "net.connections_active";
inline constexpr const char* kNetClosed = "net.connections_closed";
inline constexpr const char* kNetErrored = "net.connections_errored";
inline constexpr const char* kNetBytesRead = "net.bytes_read";
inline constexpr const char* kNetBytesWritten = "net.bytes_written";
inline constexpr const char* kNetRequests = "net.http_requests";
inline constexpr const char* kNetShed = "net.shed_total";
inline constexpr const char* kNetDraining = "net.draining";
/// Requests whose deadline expired over the HTTP transport (each one also
/// answers 504 when every solvable line in its POST timed out).
inline constexpr const char* kNetTimeout = "net.timeout_total";
/// Mid-request connections cut with 408 by the slowloris guard.
inline constexpr const char* kNetRequestTimeouts = "net.request_timeouts";
/// Idle keep-alive connections closed silently by the idle sweep.
inline constexpr const char* kNetIdleClosed = "net.idle_closed";
// Resilience layer (pipesched::fault + deadline propagation).
inline constexpr const char* kFaultInjected = "fault.injected_total";
/// Requests whose deadline expired while queued (never solved).
inline constexpr const char* kTimeoutQueueExpired = "timeout.queue_expired";
/// Coalesced waiters whose deadline expired before the owner finished.
inline constexpr const char* kTimeoutCoalescedExpired = "timeout.coalesced_expired";
/// Responses served with a partial (deadline- or failure-cut) front.
inline constexpr const char* kDegradedResponses = "degraded.responses";
/// Portfolio members dropped or cut short by deadline/failure.
inline constexpr const char* kDegradedMembers = "degraded.members_dropped";
}  // namespace names

/// "net.endpoint.<name>" nanosecond histogram: request-line parsed ->
/// response enqueued for one named endpoint (solve/stats/healthz/metrics).
Histogram& endpointHistogram(const std::string& endpoint);

/// Registers the full standard metric catalog (stage histograms plus the
/// names above) so snapshots enumerate every metric even before traffic
/// touches it — `pipesched stats` uses this to print the catalog.
void preregisterStandardMetrics();

/// Serializes a snapshot as one JSON object: {"counters": {...},
/// "gauges": {...}, "histograms": {name: {unit, count, sum, mean, p50, p90,
/// p99, buckets: [{lo, hi, count}...nonzero only]}}}.
void writeSnapshotJson(const Snapshot& snapshot, io::JsonWriter& w);

}  // namespace pipesched::obs
