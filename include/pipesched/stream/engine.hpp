// The streaming pump: Source -> AsyncScheduler -> Sink, with bounded memory
// and ordered incremental emission.
//
// runStream() pulls requests lazily from the source and submits them to the
// scheduler (blocking on channel backpressure). Each outcome is emitted to
// the sink in input order as soon as its turn completes — by the thread that
// completed it, so a source blocked in next() (a client that waits for the
// answer before sending its next line) never holds an answer back. A
// bounded reorder window (queue capacity + worker threads) caps how much the
// pump lets in:
//
//     live requests  <=  window (queueCapacity + max(service.threads, 1)) + 1
//
// counted from Source::next() to Sink::emit() — the property the
// memory-bound test instruments. The window also prevents head-of-line
// completions from accumulating unboundedly when one slow request stalls
// the emission order.
//
// The scheduler is passed in (not owned) so its result cache survives across
// passes — `pipesched batch --stream --repeat N` turns passes 2..N into pure
// cache traffic, exactly like the batch path.
#pragma once

#include <cstddef>

#include "pipesched/stream/async_scheduler.hpp"
#include "pipesched/stream/sink.hpp"
#include "pipesched/stream/source.hpp"

namespace pipesched::stream {

/// Accounting of one runStream() pass. `stream` is the scheduler's
/// snapshot() at the end of the pass — cumulative when the scheduler is shared
/// across passes.
struct EngineStats {
  std::size_t requests = 0;  ///< emitted to the sink (== stream length)
  std::size_t failed = 0;    ///< emitted outcomes with ok == false
  double wallSeconds = 0;
  double requestsPerSecond = 0;
  StreamStats stream;
};

/// Pumps the source dry. Exceptions from the source or the sink abort the
/// pass *after* draining everything already submitted (no request is left
/// dangling), then propagate. Solver failures do not throw — they arrive at
/// the sink as outcomes with ok == false.
EngineStats runStream(Source& source, Sink& sink, AsyncScheduler& scheduler);

}  // namespace pipesched::stream
