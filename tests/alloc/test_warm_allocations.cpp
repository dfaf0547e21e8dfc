// Exact heap-allocation counts of the warm request path: the JSONL read of
// one request line, its request identity and the rendering of a cached
// outcome line. A counting replacement of the global operator new (this
// executable only) counts calls per thread, so each figure is exact and
// independent of the allocator or sanitizer underneath. The counts are
// pinned: a change that adds an allocation to the warm path fails here.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdlib>
#include <new>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "pipesched/service/fingerprint.hpp"
#include "pipesched/stream/sink.hpp"
#include "pipesched/stream/source.hpp"

namespace {

thread_local std::size_t tAllocations = 0;

}  // namespace

// Every other global allocation form (array, nothrow) forwards to these in
// libstdc++, so they are counted too.
void* operator new(std::size_t size) {
  ++tAllocations;
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }

namespace pipesched {
namespace {

/// operator new calls made on this thread while `body` runs.
template <typename Body>
std::size_t allocationsOf(Body&& body) {
  const std::size_t before = tAllocations;
  body();
  return tAllocations - before;
}

/// A 10-stage, 6-processor request line as the warm benchmarks send it.
std::string requestLine() {
  return R"({"text": "pipesched-instance v1\nstages 10\n)"
         R"(work 12.5 3.25 17.875 8.0625 1.5 19.25 6.75 11.125 4.5 15.375\n)"
         R"(comm 10 42.5 7.25 88.125 3.5 61.75 29.25 5.5 73.875 16.25 50.5\n)"
         R"(processors 6\nspeeds 3 17 8 12 5 20\nbandwidth 10\n"})"
         "\n";
}

TEST(WarmAllocations, JsonlSourceNextOnAWarmedReader) {
  std::string input;
  for (int i = 0; i < 4; ++i) input += requestLine();
  std::istringstream in(input);
  stream::JsonlSource source(in);
  ASSERT_TRUE(source.next().has_value());  // warms the line buffer and parser arena
  std::optional<service::Request> request;
  const std::size_t count = allocationsOf([&] { request = source.next(); });
  ASSERT_TRUE(request.has_value());
  EXPECT_EQ(count, 5u);
}

TEST(WarmAllocations, RequestIdentity) {
  std::istringstream in(requestLine());
  stream::JsonlSource source(in);
  const std::optional<service::Request> request = source.next();
  ASSERT_TRUE(request.has_value());
  std::optional<service::RequestIdentity> identity;
  const std::size_t count = allocationsOf([&] { identity = service::requestIdentity(*request); });
  ASSERT_FALSE(identity->key.empty());
  EXPECT_EQ(count, 1u);
}

TEST(WarmAllocations, RenderCachedOutcomeLineIntoAWarmedBuffer) {
  std::istringstream in(requestLine());
  stream::JsonlSource source(in);
  const std::optional<service::Request> request = source.next();
  ASSERT_TRUE(request.has_value());

  service::RequestOutcome outcome;
  outcome.ok = true;
  outcome.fromCache = true;
  outcome.fingerprint = service::requestIdentity(*request).fp;
  for (std::size_t i = 0; i < 6; ++i) {
    const Real r = static_cast<Real>(i);
    outcome.result.front.push_back(core::ParetoPoint{
        14.2857142857 + 3.1 * r, 37.05 - 1.3 / (r + 3),
        core::IntervalMapping::singleInterval(10, i)});
  }
  for (const char* solver :
       {"H1-SpMonoP", "H2-3ExploMono", "H3-3ExploBi", "H4-SpBiP", "H5-SpMonoL", "H6-SpBiL"}) {
    service::SolverContribution c;
    c.solver = solver;
    c.points = 24;
    c.completed = true;
    c.units = 24;
    c.novel = 5;
    c.merged = 1;
    outcome.result.solvers.push_back(c);
  }

  std::string buffer;
  stream::renderOutcomeLine(buffer, 0, 1, *request, outcome);  // warms the buffer
  const std::string first = buffer;
  const std::size_t count = allocationsOf([&] {
    buffer.clear();
    stream::renderOutcomeLine(buffer, 0, 1, *request, outcome);
  });
  EXPECT_EQ(buffer, first);
  EXPECT_EQ(count, 1u);
}

}  // namespace
}  // namespace pipesched
