#include "pipesched/obs/metrics.hpp"

#include <cmath>
#include <limits>

#include "pipesched/io/json.hpp"
#include "pipesched/obs/trace.hpp"

namespace pipesched::obs {

namespace {
std::atomic<bool> g_metricsEnabled{false};
std::atomic<bool> g_tracingEnabled{false};
}  // namespace

bool metricsEnabled() noexcept { return g_metricsEnabled.load(std::memory_order_relaxed); }
void setMetricsEnabled(bool on) noexcept {
  g_metricsEnabled.store(on, std::memory_order_relaxed);
}

bool tracingEnabled() noexcept { return g_tracingEnabled.load(std::memory_order_relaxed); }
void setTracingEnabled(bool on) noexcept {
  g_tracingEnabled.store(on, std::memory_order_relaxed);
}

const char* unitName(Unit unit) noexcept {
  return unit == Unit::kNanoseconds ? "ns" : "count";
}

// ---------------------------------------------------------------------------
// Histogram.
// ---------------------------------------------------------------------------

std::uint64_t Histogram::bucketLow(std::size_t index) noexcept {
  return index == 0 ? 0 : std::uint64_t{1} << (index - 1);
}

std::uint64_t Histogram::bucketHigh(std::size_t index) noexcept {
  if (index == 0) return 0;
  if (index >= kHistogramBuckets - 1) return std::numeric_limits<std::uint64_t>::max();
  return (std::uint64_t{1} << index) - 1;
}

HistogramSnapshot Histogram::snapshot() const {
  HistogramSnapshot snap;
  snap.unit = unit_;
  snap.sum = sum_.load(std::memory_order_relaxed);
  for (std::size_t i = 0; i < kHistogramBuckets; ++i) {
    snap.buckets[i] = buckets_[i].load(std::memory_order_relaxed);
    snap.count += snap.buckets[i];
  }
  return snap;
}

void Histogram::reset() noexcept {
  for (auto& bucket : buckets_) bucket.store(0, std::memory_order_relaxed);
  sum_.store(0, std::memory_order_relaxed);
}

void HistogramSnapshot::merge(const HistogramSnapshot& other) {
  count += other.count;
  sum += other.sum;
  for (std::size_t i = 0; i < kHistogramBuckets; ++i) buckets[i] += other.buckets[i];
}

double HistogramSnapshot::mean() const noexcept {
  return count == 0 ? 0.0 : static_cast<double>(sum) / static_cast<double>(count);
}

double HistogramSnapshot::quantile(double q) const noexcept {
  if (count == 0) return 0.0;
  if (q > 1.0) q = 1.0;
  // Rank of the order statistic we are after, 1-based.
  const double raw = std::ceil(q * static_cast<double>(count));
  const std::uint64_t target = raw < 1.0 ? 1 : static_cast<std::uint64_t>(raw);
  std::uint64_t cumulative = 0;
  for (std::size_t i = 0; i < kHistogramBuckets; ++i) {
    const std::uint64_t inBucket = buckets[i];
    if (cumulative + inBucket >= target) {
      const auto low = static_cast<double>(Histogram::bucketLow(i));
      // The overflow bucket has no finite top; pretend it spans one octave
      // like its neighbours so interpolation stays finite.
      const double high = i >= kHistogramBuckets - 1
                              ? low * 2.0 - 1.0
                              : static_cast<double>(Histogram::bucketHigh(i));
      const double within =
          static_cast<double>(target - cumulative) / static_cast<double>(inBucket);
      return low + within * (high + 1.0 - low);
    }
    cumulative += inBucket;
  }
  return static_cast<double>(Histogram::bucketLow(kHistogramBuckets - 1));  // unreachable
}

// ---------------------------------------------------------------------------
// Registry.
// ---------------------------------------------------------------------------

Counter& Registry::counter(const std::string& name) {
  std::lock_guard<std::mutex> lock(mutex_);
  for (CounterRow& row : counters_) {
    if (row.name == name) return row.metric;
  }
  counters_.emplace_back(name);
  return counters_.back().metric;
}

Gauge& Registry::gauge(const std::string& name) {
  std::lock_guard<std::mutex> lock(mutex_);
  for (GaugeRow& row : gauges_) {
    if (row.name == name) return row.metric;
  }
  gauges_.emplace_back(name);
  return gauges_.back().metric;
}

Histogram& Registry::histogram(const std::string& name, Unit unit) {
  std::lock_guard<std::mutex> lock(mutex_);
  for (HistogramRow& row : histograms_) {
    if (row.name == name) return row.metric;
  }
  histograms_.emplace_back(name, unit);
  return histograms_.back().metric;
}

Snapshot Registry::snapshot() const {
  Snapshot snap;
  std::lock_guard<std::mutex> lock(mutex_);
  snap.counters.reserve(counters_.size());
  for (const CounterRow& row : counters_) {
    snap.counters.push_back({row.name, row.metric.value()});
  }
  snap.gauges.reserve(gauges_.size());
  for (const GaugeRow& row : gauges_) {
    snap.gauges.push_back({row.name, row.metric.value()});
  }
  snap.histograms.reserve(histograms_.size());
  for (const HistogramRow& row : histograms_) {
    snap.histograms.push_back({row.name, row.metric.snapshot()});
  }
  return snap;
}

void Registry::reset() {
  std::lock_guard<std::mutex> lock(mutex_);
  for (CounterRow& row : counters_) row.metric.reset();
  for (GaugeRow& row : gauges_) row.metric.reset();
  for (HistogramRow& row : histograms_) row.metric.reset();
}

Registry& registry() {
  static Registry instance;
  return instance;
}

void preregisterStandardMetrics() {
  Registry& reg = registry();
  for (std::size_t i = 0; i < kStageCount; ++i) {
    (void)stageHistogram(static_cast<Stage>(i));
  }
  (void)reg.histogram(names::kQueueDepth, Unit::kCount);
  (void)reg.histogram(names::kDrain, Unit::kNanoseconds);
  (void)reg.histogram(names::kMemberRun, Unit::kNanoseconds);
  (void)reg.counter(names::kCoalesced);
  (void)reg.counter(names::kRequestsSolved);
  (void)reg.counter(names::kRequestsCacheHit);
  (void)reg.counter(names::kRequestsFailed);
  (void)reg.counter(names::kParseErrors);
  (void)reg.counter(names::kDeltaPeeks);
  (void)reg.counter(names::kDeltaApplies);
  (void)reg.counter(names::kDeltaReplaces);
  (void)reg.counter(names::kDeltaUndos);
  (void)reg.counter(names::kNetAccepted);
  (void)reg.gauge(names::kNetActive);
  (void)reg.counter(names::kNetClosed);
  (void)reg.counter(names::kNetErrored);
  (void)reg.counter(names::kNetBytesRead);
  (void)reg.counter(names::kNetBytesWritten);
  (void)reg.counter(names::kNetRequests);
  (void)reg.counter(names::kNetShed);
  (void)reg.gauge(names::kNetDraining);
  (void)reg.counter(names::kNetTimeout);
  (void)reg.counter(names::kNetRequestTimeouts);
  (void)reg.counter(names::kNetIdleClosed);
  (void)reg.counter(names::kFaultInjected);
  (void)reg.counter(names::kTimeoutQueueExpired);
  (void)reg.counter(names::kTimeoutCoalescedExpired);
  (void)reg.counter(names::kDegradedResponses);
  (void)reg.counter(names::kDegradedMembers);
  for (const char* endpoint : {"solve", "stats", "healthz", "metrics"}) {
    (void)endpointHistogram(endpoint);
  }
}

Histogram& endpointHistogram(const std::string& endpoint) {
  return registry().histogram("net.endpoint." + endpoint, Unit::kNanoseconds);
}

void writeSnapshotJson(const Snapshot& snapshot, io::JsonWriter& w) {
  w.beginObject();
  w.key("counters").beginObject();
  for (const Snapshot::CounterRow& row : snapshot.counters) {
    w.kv(row.name, static_cast<std::size_t>(row.value));
  }
  w.endObject();
  w.key("gauges").beginObject();
  for (const Snapshot::GaugeRow& row : snapshot.gauges) {
    if (row.value >= 0) {
      w.kv(row.name, static_cast<std::size_t>(row.value));
    } else {
      w.kv(row.name, static_cast<double>(row.value));
    }
  }
  w.endObject();
  w.key("histograms").beginObject();
  for (const Snapshot::HistogramRow& row : snapshot.histograms) {
    const HistogramSnapshot& h = row.hist;
    w.key(row.name).beginObject();
    w.kv("unit", unitName(h.unit));
    w.kv("count", static_cast<std::size_t>(h.count));
    w.kv("sum", static_cast<std::size_t>(h.sum));
    w.kv("mean", h.mean());
    w.kv("p50", h.quantile(0.50));
    w.kv("p90", h.quantile(0.90));
    w.kv("p99", h.quantile(0.99));
    w.key("buckets").beginArray();
    for (std::size_t i = 0; i < kHistogramBuckets; ++i) {
      if (h.buckets[i] == 0) continue;
      w.beginObject();
      w.kv("lo", static_cast<std::size_t>(Histogram::bucketLow(i)));
      // The overflow bucket's true top is 2^64-1; emit its low bound twice
      // rather than a value JSON consumers cannot hold exactly.
      w.kv("hi", static_cast<std::size_t>(i >= kHistogramBuckets - 1
                                              ? Histogram::bucketLow(i)
                                              : Histogram::bucketHigh(i)));
      w.kv("count", static_cast<std::size_t>(h.buckets[i]));
      w.endObject();
    }
    w.endArray();
    w.endObject();
  }
  w.endObject();
  w.endObject();
}

}  // namespace pipesched::obs
