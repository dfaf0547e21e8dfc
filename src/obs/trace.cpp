#include "pipesched/obs/trace.hpp"

#if defined(__x86_64__)
#include <cpuid.h>
#include <x86intrin.h>
#endif

namespace pipesched::obs {

namespace {

/// The time-stamp counter at calibration and its nanoseconds per tick; a
/// zero rate where the counter is missing or not invariant.
struct Tsc {
  std::uint64_t base = 0;
  double nanosPerTick = 0;
};

Tsc calibrateTsc() noexcept {
  Tsc tsc;
#if defined(__x86_64__)
  unsigned eax = 0, ebx = 0, ecx = 0, edx = 0;
  constexpr unsigned kInvariantTsc = 1u << 8;
  if (__get_cpuid(0x80000007, &eax, &ebx, &ecx, &edx) == 0 || (edx & kInvariantTsc) == 0) {
    return tsc;
  }
  // One millisecond keeps the rate's error near 1e-4, from the cost of the
  // two steady_clock reads that bound it.
  const std::chrono::steady_clock::time_point start = std::chrono::steady_clock::now();
  tsc.base = __rdtsc();
  std::chrono::steady_clock::time_point end;
  do {
    end = std::chrono::steady_clock::now();
  } while (end - start < std::chrono::milliseconds(1));
  const std::uint64_t ticks = __rdtsc() - tsc.base;
  tsc.nanosPerTick = std::chrono::duration<double, std::nano>(end - start).count() /
                     static_cast<double>(ticks);
#endif
  return tsc;
}

}  // namespace

TraceClock::time_point TraceClock::now() noexcept {
  static const Tsc tsc = calibrateTsc();
#if defined(__x86_64__)
  if (tsc.nanosPerTick > 0) {
    const double nanos = static_cast<double>(__rdtsc() - tsc.base) * tsc.nanosPerTick;
    return time_point(duration(static_cast<rep>(nanos)));
  }
#endif
  return time_point(std::chrono::duration_cast<duration>(
      std::chrono::steady_clock::now().time_since_epoch()));
}

const char* stageName(Stage stage) noexcept {
  switch (stage) {
    case Stage::kParse:
      return "parse";
    case Stage::kFingerprint:
      return "fingerprint";
    case Stage::kCacheLookup:
      return "cache_lookup";
    case Stage::kQueueWait:
      return "queue_wait";
    case Stage::kMemberSolve:
      return "member_solve";
    case Stage::kMerge:
      return "merge";
    case Stage::kEmit:
      return "emit";
    case Stage::kCount_:
      break;
  }
  return "unknown";
}

Histogram& stageHistogram(Stage stage) {
  // One-time registration of every stage histogram; thereafter a plain
  // array read, so hot paths pay no registry lookup.
  static const std::array<Histogram*, kStageCount> table = [] {
    std::array<Histogram*, kStageCount> t{};
    for (std::size_t i = 0; i < kStageCount; ++i) {
      const std::string name = std::string("stage.") + stageName(static_cast<Stage>(i));
      t[i] = &registry().histogram(name, Unit::kNanoseconds);
    }
    return t;
  }();
  return *table[static_cast<std::size_t>(stage)];
}

}  // namespace pipesched::obs
