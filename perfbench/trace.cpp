// In-process per-layer replay for the benchmark's traced runs.
//
// Reads one workload's request lines (the exact JSONL the workload sends the
// program) and pushes them through the library's public functions in the
// order the serving path uses them, timing every call from outside:
//
//   net      HttpParser::consume on the POST that carries the line,
//            renderHttpResponse on the answer
//   io       JsonlSource::next (fast JSONL reader + in-place instance text),
//            the outcome line render (stream::writeOutcomeFields), formatReal
//   service  requestIdentity, ResultCache get/put, SchedulingService::solve
//            (or solveBatch in batch mode), each portfolio member run alone
//   exact    exhaustiveParetoFront on exact-eligible instances
//   core     Evaluator::evaluate and DeltaEvaluator::peek on the front's
//            mappings
//
// Nothing is added inside the library. The output is one JSON object of
// per-layer metric values on stdout.
//
//   perfbench_trace --input FILE --seconds S [--batch-size B]
//
// Without --batch-size every line is one request (the HTTP and stdio serve
// shape); with it, lines are solved B at a time through solveBatch on
// kBatchThreads threads (the shape of `batch --threads 2`, as the benchmark
// runs it).
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "pipesched/core/delta_evaluation.hpp"
#include "pipesched/core/evaluation.hpp"
#include "pipesched/exact/exhaustive.hpp"
#include "pipesched/io/json.hpp"
#include "pipesched/io/real_format.hpp"
#include "pipesched/net/http.hpp"
#include "pipesched/service/fingerprint.hpp"
#include "pipesched/service/portfolio.hpp"
#include "pipesched/service/result_cache.hpp"
#include "pipesched/service/service.hpp"
#include "pipesched/stream/sink.hpp"
#include "pipesched/stream/source.hpp"

namespace {

using namespace pipesched;
using Clock = std::chrono::steady_clock;

constexpr std::size_t kBatchThreads = 2;

double secondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Running total of one timed call site.
struct Tally {
  double seconds = 0;
  std::size_t calls = 0;
  void add(double s, std::size_t n = 1) {
    seconds += s;
    calls += n;
  }
  [[nodiscard]] double mean() const { return calls == 0 ? 0.0 : seconds / calls; }
};

struct Options {
  std::string input;
  double seconds = 5;
  std::size_t batchSize = 0;
};

Options parseOptions(int argc, char** argv) {
  Options o;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--input") {
      o.input = value;
    } else if (flag == "--seconds") {
      o.seconds = std::atof(value);
    } else if (flag == "--batch-size") {
      o.batchSize = static_cast<std::size_t>(std::atol(value));
    } else {
      std::fprintf(stderr, "perfbench_trace: unknown option %s\n", flag.c_str());
      std::exit(2);
    }
  }
  if (o.input.empty()) {
    std::fprintf(stderr, "perfbench_trace: --input FILE is required\n");
    std::exit(2);
  }
  return o;
}

class Replay {
 public:
  Replay(const Options& options, const std::string& corpus)
      : options_(options),
        corpus_(corpus),
        source_(corpus_, defaults_),
        service_(serviceConfig(options)),
        members_(service::makePortfolioMembers(portfolio_)) {
    // Every member gets a row, also on workloads where it never runs.
    for (const auto& member : members_) memberTimes_[member->id()];
  }

  /// Replays `lines` (the corpus, split) until they run out or the time
  /// budget is spent; a started batch always finishes.
  void run(const std::vector<std::string>& lines) {
    const Clock::time_point start = Clock::now();
    std::size_t next = 0;
    while (next < lines.size() && secondsSince(start) < options_.seconds) {
      if (options_.batchSize == 0) {
        single(lines[next++]);
      } else {
        const std::size_t count = std::min(options_.batchSize, lines.size() - next);
        batch(&lines[next], count);
        next += count;
      }
    }
  }

  void print() const {
    std::map<std::string, double> out;
    out["net.http_parse_us"] = httpParse_.mean() * 1e6;
    out["net.response_bytes"] = requests_ == 0 ? 0.0 : responseBytes_ / requests_;
    out["io.parse_us_per_line"] = parse_.mean() * 1e6;
    out["io.emit_us"] = emit_.mean() * 1e6;
    out["io.format_real_ns"] = formatReal_.mean() * 1e9;
    out["service.fingerprint_us"] = fingerprint_.mean() * 1e6;
    out["service.cache_get_us"] = cacheGet_.mean() * 1e6;
    out["service.cache_put_us"] = cachePut_.mean() * 1e6;
    out["service.solve_ms"] = solve_.mean() * 1e3;
    out["exact.enumerate_ms"] = enumerate_.mean() * 1e3;
    out["core.evaluate_ns"] = evaluate_.mean() * 1e9;
    out["core.delta_peek_ns"] = peek_.mean() * 1e9;
    const double perRequest = requests_ == 0 ? 0.0 : 1.0 / static_cast<double>(requests_);
    out["service.result_hits"] = static_cast<double>(resultHits_) * perRequest;
    out["service.deduped"] = static_cast<double>(deduped_) * perRequest;
    out["service.sub_units_reused"] = static_cast<double>(unitsReused_) * perRequest;
    out["service.units_per_request"] =
        solved_ == 0 ? 0.0 : static_cast<double>(units_) / static_cast<double>(solved_);
    for (const auto& [id, tally] : memberTimes_) out["service.member_ms." + id] = tally.mean() * 1e3;
    std::printf("{\"requests\": %zu", requests_);
    for (const auto& [name, value] : out) std::printf(", \"%s\": %.9g", name.c_str(), value);
    std::printf("}\n");
  }

 private:
  static service::ServiceConfig serviceConfig(const Options& options) {
    service::ServiceConfig config;
    config.threads = options.batchSize == 0 ? 0 : kBatchThreads;
    // The result cache is timed separately below (cache_), so the service's
    // own one stays off; sub-result sharing stays on as in the program.
    config.cacheCapacity = 0;
    return config;
  }

  /// The next line of the corpus through the program's JSONL reader; lines
  /// are pulled in the order run() walks them.
  std::optional<service::Request> parseLine() {
    const Clock::time_point t = Clock::now();
    std::optional<service::Request> request = source_.next();
    parse_.add(secondsSince(t));
    return request;
  }

  void transport(const std::string& line) {
    const std::string body = line + "\n";
    const std::string wire = "POST /solve HTTP/1.1\r\nHost: 127.0.0.1\r\n"
                             "Content-Type: application/x-ndjson\r\nContent-Length: " +
                             std::to_string(body.size()) + "\r\n\r\n" + body;
    net::HttpParser parser;
    const Clock::time_point t = Clock::now();
    const net::HttpParser::Status status = parser.consume(wire);
    httpParse_.add(secondsSince(t));
    if (status != net::HttpParser::Status::kComplete) fail("HTTP request did not parse");
  }

  void single(const std::string& line) {
    transport(line);
    std::optional<service::Request> request = parseLine();
    if (!request) fail("request line did not parse");
    ++requests_;
    const service::RequestIdentity identity = identify(*request);

    Clock::time_point t = Clock::now();
    std::optional<service::PortfolioResult> cached = cache_.get(identity.fp, identity.key);
    cacheGet_.add(secondsSince(t));

    service::RequestOutcome outcome;
    if (cached) {
      ++resultHits_;
      outcome.ok = true;
      outcome.fromCache = true;
      outcome.fingerprint = identity.fp;
      outcome.result = std::move(*cached);
    } else {
      t = Clock::now();
      outcome = service_.solve(*request, identity);
      solve_.add(secondsSince(t));
      if (!outcome.ok) fail("solve failed: " + outcome.error);
      store(identity, outcome);
      layersBelow(*request, outcome);
    }
    render(*request, outcome);
  }

  /// `lines` solved as one solveBatch call; the transport, identity and
  /// cache calls are timed per line as on the single-request path.
  void batch(const std::string* lines, std::size_t count) {
    std::vector<service::Request> requests;
    std::vector<service::RequestIdentity> identities;
    for (std::size_t i = 0; i < count; ++i) {
      transport(lines[i]);
      std::optional<service::Request> request = parseLine();
      if (!request) fail("request line did not parse");
      identities.push_back(identify(*request));
      const Clock::time_point t = Clock::now();
      (void)cache_.get(identities.back().fp, identities.back().key);
      cacheGet_.add(secondsSince(t));
      requests.push_back(std::move(*request));
    }
    requests_ += requests.size();
    const Clock::time_point t = Clock::now();
    const service::BatchResult result = service_.solveBatch(requests);
    const double wall = secondsSince(t);
    deduped_ += result.stats.deduped;
    resultHits_ += result.stats.cacheHits;
    solve_.add(wall, std::max<std::size_t>(result.stats.solved, 1));
    for (std::size_t i = 0; i < requests.size(); ++i) {
      const service::RequestOutcome& outcome = result.outcomes[i];
      if (!outcome.ok) fail("solve failed: " + outcome.error);
      if (!outcome.fromCache && !outcome.deduped) {
        store(identities[i], outcome);
        layersBelow(requests[i], outcome);
      }
      render(requests[i], outcome);
    }
  }

  service::RequestIdentity identify(const service::Request& request) {
    const Clock::time_point t = Clock::now();
    service::RequestIdentity identity = service::requestIdentity(request);
    fingerprint_.add(secondsSince(t));
    return identity;
  }

  /// Caches a fresh solve (timed) and counts its units.
  void store(const service::RequestIdentity& identity, const service::RequestOutcome& outcome) {
    const Clock::time_point t = Clock::now();
    cache_.put(identity.fp, identity.key, outcome.result);
    cachePut_.add(secondsSince(t));
    ++solved_;
    for (const service::SolverContribution& c : outcome.result.solvers) {
      units_ += c.units;
      unitsReused_ += c.reused;
    }
  }

  /// Member, exact and kernel timings for one freshly solved request.
  void layersBelow(const service::Request& request, const service::RequestOutcome& outcome) {
    const core::Evaluator eval(request.pipeline, request.platform, request.model);
    for (const auto& member : members_) {
      if (!member->accepts(eval, portfolio_)) continue;
      const Clock::time_point t = Clock::now();
      const std::unique_ptr<service::PortfolioMember::Run> run =
          member->start(eval, request.sweep, portfolio_, nullptr);
      for (std::size_t i = 0; i < run->units(); ++i) (void)run->unit(i);
      memberTimes_[member->id()].add(secondsSince(t));
    }
    if (service::exactEligible(request.pipeline.stageCount(),
                               request.platform.processorCount(), portfolio_)) {
      const Clock::time_point t = Clock::now();
      const std::vector<core::ParetoPoint> front = exact::exhaustiveParetoFront(eval);
      enumerate_.add(secondsSince(t));
      if (front.empty()) fail("exact enumeration returned no point");
    }
    kernel(eval, outcome.result.front);
  }

  void kernel(const core::Evaluator& eval, const std::vector<core::ParetoPoint>& front) {
    constexpr int kRepeats = 64;
    double sink = 0;
    core::EvalWorkspace workspace;
    for (const core::ParetoPoint& point : front) {
      if (!point.mapping) continue;
      const core::IntervalMapping& mapping = *point.mapping;
      Clock::time_point t = Clock::now();
      for (int r = 0; r < kRepeats; ++r) sink += eval.evaluate(mapping).period;
      evaluate_.add(secondsSince(t), kRepeats);

      core::DeltaEvaluator delta(eval, workspace);
      delta.load(mapping);
      const std::size_t m = mapping.intervalCount();
      const std::size_t p = eval.platform().processorCount();
      std::vector<core::Move> moves;
      for (std::size_t j = 0; j < m; ++j) {
        for (std::size_t u = 0; u < p; ++u) moves.push_back(core::Move::reassign(j, u));
        for (std::size_t k = j + 1; k < m; ++k) moves.push_back(core::Move::swapProcessors(j, k));
        if (j + 1 < m) {
          moves.push_back(core::Move::shiftLeft(j));
          moves.push_back(core::Move::shiftRight(j));
          moves.push_back(core::Move::merge(j, true));
        }
      }
      t = Clock::now();
      for (const core::Move& move : moves) {
        if (const std::optional<core::Metrics> metrics = delta.peek(move)) sink += metrics->latency;
      }
      peek_.add(secondsSince(t), moves.size());
    }
    if (sink < 0) std::printf("%g\n", sink);  // keeps the timed calls observable
  }

  /// The outcome line exactly as the serve transports render it, then the
  /// HTTP response around it, then formatReal on every number of the front.
  void render(const service::Request& request, const service::RequestOutcome& outcome) {
    Clock::time_point t = Clock::now();
    buffer_.clear();
    {
      io::StringOutStream line(buffer_);
      io::JsonWriter w(line, /*pretty=*/false);
      w.beginObject();
      w.kv("index", requests_ - 1);
      stream::writeOutcomeFields(w, request.name, outcome);
      w.endObject();
    }
    buffer_ += '\n';
    emit_.add(secondsSince(t));
    responseBytes_ += static_cast<double>(
        net::renderHttpResponse(200, "application/x-ndjson", buffer_, true).size());

    t = Clock::now();
    std::size_t digits = 0;
    for (const core::ParetoPoint& point : outcome.result.front) {
      digits += io::formatReal(point.period).size();
      digits += io::formatReal(point.latency).size();
    }
    formatReal_.add(secondsSince(t), 2 * outcome.result.front.size());
    if (digits == 0 && !outcome.result.front.empty()) fail("formatReal produced nothing");
  }

  [[noreturn]] static void fail(const std::string& what) {
    std::fprintf(stderr, "perfbench_trace: %s\n", what.c_str());
    std::exit(1);
  }

  Options options_;
  stream::JsonlDefaults defaults_;  // the serve defaults: 24 points, range 3, sequential
  std::istringstream corpus_;
  stream::JsonlSource source_;
  service::PortfolioConfig portfolio_;
  service::SchedulingService service_;
  service::ResultCache cache_{1024};
  std::vector<std::unique_ptr<service::PortfolioMember>> members_;
  std::string buffer_;

  std::size_t requests_ = 0;
  std::size_t solved_ = 0;
  std::size_t resultHits_ = 0;
  std::size_t deduped_ = 0;
  std::uint64_t units_ = 0;
  std::uint64_t unitsReused_ = 0;
  double responseBytes_ = 0;
  Tally httpParse_, parse_, emit_, formatReal_, fingerprint_, cacheGet_, cachePut_, solve_,
      enumerate_, evaluate_, peek_;
  std::map<std::string, Tally> memberTimes_;
};

}  // namespace

int main(int argc, char** argv) {
  const Options options = parseOptions(argc, argv);
  std::ifstream in(options.input);
  if (!in) {
    std::fprintf(stderr, "perfbench_trace: cannot open %s\n", options.input.c_str());
    return 1;
  }
  std::string corpus;
  std::vector<std::string> lines;
  for (std::string line; std::getline(in, line);) {
    if (line.empty()) continue;
    corpus += line;
    corpus += '\n';
    lines.push_back(std::move(line));
  }
  Replay replay(options, corpus);
  replay.run(lines);
  replay.print();
  return 0;
}
