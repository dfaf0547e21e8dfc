#include "pipesched/net/endpoints.hpp"

#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <memory>
#include <mutex>
#include <sstream>
#include <utility>
#include <vector>

#include "pipesched/io/json.hpp"
#include "pipesched/net/server.hpp"
#include "pipesched/obs/exposition.hpp"
#include "pipesched/obs/metrics.hpp"
#include "pipesched/obs/trace.hpp"
#include "pipesched/stream/async_scheduler.hpp"
#include "pipesched/stream/sink.hpp"

namespace pipesched::net {

namespace {

/// Shared state of one in-flight POST /solve: a slot per input line, filled
/// by scheduler workers as outcomes land (parse-error slots are prefilled at
/// parse time). The last outcome to land completes the HTTP response; a shed
/// mid-body abandons the batch (503 already sent) and late outcomes are
/// simply dropped. Held by shared_ptr from every callback so it outlives the
/// connection whatever order workers finish in.
struct PendingSolve {
  std::mutex mutex;
  std::vector<std::string> lines;  ///< rendered JSONL lines, input order
  std::size_t remaining = 0;       ///< outcomes not yet landed
  std::size_t solvable = 0;        ///< well-formed lines submitted
  std::size_t timedOut = 0;        ///< outcomes that missed their deadline
  bool abandoned = false;          ///< shed: 503 sent, drop late outcomes
  HttpServer::Done done;

  /// Joins the slots into the response body. Caller holds `mutex`.
  [[nodiscard]] std::string body() const {
    std::string joined;
    for (const std::string& line : lines) {
      joined += line;
      joined += '\n';
    }
    return joined;
  }
};

void handleSolve(HttpServer& server, stream::AsyncScheduler& scheduler,
                 const ServeEndpointsConfig& config, const HttpRequest& request,
                 HttpServer::Done done) {
  if (config.draining && config.draining()) {
    done(503, "application/json", "{\"draining\":true}\n");
    return;
  }

  // X-Deadline-Ms sets the default deadline for body lines without their own
  // deadline_ms — the HTTP spelling of `serve --deadline-ms`. The defaults
  // copy means the header scopes to this one POST.
  stream::JsonlDefaults defaults = config.defaults;
  if (const std::string* header = request.header("X-Deadline-Ms")) {
    char* end = nullptr;
    errno = 0;
    const double value = std::strtod(header->c_str(), &end);
    if (errno != 0 || end == header->c_str() || *end != '\0' ||
        !std::isfinite(value) || value < 0) {
      done(400, "text/plain",
           "X-Deadline-Ms must be a non-negative number of milliseconds\n");
      return;
    }
    defaults.deadlineMs = value;
  }

  // Parse the whole body up front: slots for every line (errors prefilled),
  // plus the list of well-formed requests to submit. Parsing is synchronous
  // and cheap next to solving; it also means a shed can be decided before
  // any response bytes are promised.
  auto pending = std::make_shared<PendingSolve>();
  struct Parsed {
    Parsed(service::Request r, std::size_t s) : request(std::move(r)), slot(s) {}
    service::Request request;
    std::size_t slot;  ///< position among all body lines
  };
  std::vector<Parsed> requests;
  std::istringstream body(request.body);
  stream::JsonlSource source(body, defaults,
                             [&](std::size_t line, const std::string& message) {
                               stream::renderParseErrorLine(pending->lines.emplace_back(),
                                                            line, message);
                             });
  while (auto next = source.next()) {
    const std::size_t slot = pending->lines.size();
    pending->lines.emplace_back();  // filled when the outcome lands
    requests.emplace_back(std::move(*next), slot);
  }

  pending->remaining = requests.size();
  pending->solvable = requests.size();
  if (pending->remaining == 0) {
    // Nothing to solve (empty body or all lines malformed): answer now.
    done(200, "application/x-ndjson", pending->body());
    return;
  }
  pending->done = std::move(done);

  // A request's index counts well-formed lines only: its place in `requests`.
  for (std::size_t index = 0; index < requests.size(); ++index) {
    const std::size_t slot = requests[index].slot;
    const bool accepted = scheduler.trySubmit(
        std::move(requests[index].request),
        [pending, slot, index](const service::Request& req,
                               const service::RequestOutcome& outcome) {
          {
            // Each slot has exactly one writer, and the last landing reads
            // them all under the mutex after every writer's decrement — so
            // the render goes straight into the slot, outside the lock.
            // Byte-identical to stdio serve's line: `index` counts requests
            // (0-based, parse errors excluded) and `line` is the 1-based
            // input line, both scoped to this POST body.
            obs::TraceSpan emitSpan(obs::Stage::kEmit);
            stream::renderOutcomeLine(pending->lines[slot], index, req.sourceLine, req,
                                      outcome);
          }
          if (outcome.timedOut && obs::metricsEnabled()) {
            static obs::Counter& netTimeouts = obs::registry().counter(obs::names::kNetTimeout);
            netTimeouts.add();
          }
          std::unique_lock<std::mutex> lock(pending->mutex);
          if (outcome.timedOut) ++pending->timedOut;
          const bool last = --pending->remaining == 0;
          if (!last || pending->abandoned) return;
          // 504 only when the entire batch missed its deadline — a mixed
          // batch stays 200 with per-line timed_out flags, matching the
          // per-line error contract everywhere else in the protocol.
          const bool allTimedOut =
              pending->timedOut > 0 && pending->timedOut == pending->solvable;
          std::string responseBody = pending->body();
          HttpServer::Done complete = std::move(pending->done);
          lock.unlock();  // never invoke the transport under our lock
          complete(allTimedOut ? 504 : 200, "application/x-ndjson", responseBody);
        });
    if (!accepted) {
      // Queue saturated: shed the whole POST. Outcomes of lines already
      // submitted still complete into the abandoned batch and are dropped.
      server.noteShed();
      std::unique_lock<std::mutex> lock(pending->mutex);
      pending->abandoned = true;
      HttpServer::Done complete = std::move(pending->done);
      lock.unlock();
      complete(503, "text/plain", "scheduler queue full — request shed\n");
      return;
    }
  }
}

}  // namespace

void installServeEndpoints(HttpServer& server, stream::AsyncScheduler& scheduler,
                           ServeEndpointsConfig config) {
  auto shared = std::make_shared<ServeEndpointsConfig>(std::move(config));

  server.handle("POST", "/solve",
                [&server, &scheduler, shared](const HttpRequest& request,
                                              HttpServer::Done done) {
                  handleSolve(server, scheduler, *shared, request, std::move(done));
                });

  server.handle("GET", "/stats",
                [shared](const HttpRequest&, HttpServer::Done done) {
                  std::string body =
                      shared->statsSnapshot ? shared->statsSnapshot() : std::string();
                  if (body.empty() || body.back() != '\n') body += '\n';
                  done(200, "application/json", std::move(body));
                });

  server.handle("GET", "/healthz",
                [shared](const HttpRequest&, HttpServer::Done done) {
                  const bool draining = shared->draining && shared->draining();
                  std::ostringstream buffer;
                  io::JsonWriter w(buffer, /*pretty=*/false);
                  w.beginObject();
                  w.kv("status", draining ? "draining" : "ok");
                  w.kv("draining", draining);
                  if (shared->uptimeSeconds) {
                    w.kv("uptime_seconds", shared->uptimeSeconds());
                  }
                  w.endObject();
                  done(draining ? 503 : 200, "application/json",
                       std::move(buffer).str() + "\n");
                });

  server.handle("GET", "/metrics",
                [](const HttpRequest&, HttpServer::Done done) {
                  done(200, "text/plain; version=0.0.4",
                       obs::renderSnapshotPrometheus(obs::registry().snapshot()));
                });
}

}  // namespace pipesched::net
