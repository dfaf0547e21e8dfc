#include "pipesched/service/fingerprint.hpp"

#include <cstdio>
#include <sstream>

#include "pipesched/core/hash.hpp"

namespace pipesched::service {

namespace {

void renderReals(std::ostream& os, const char* tag, const std::vector<Real>& values) {
  os << tag << ':' << values.size();
  for (const Real v : values) os << ' ' << renderRealHex(v);
  os << '\n';
}

const char* modelTag(core::CommModel model) {
  return model == core::CommModel::kSequential ? "sequential" : "overlapped";
}

/// Streams the sweep-independent *instance* fields (pipeline, platform,
/// comm model) through one sink. walkRequest layers the sweep spec on top;
/// the instance identity (sub-result cache key) stops here.
template <typename Sink>
void walkInstance(const Request& request, Sink&& sink) {
  sink.reals("work", request.pipeline.works());
  sink.reals("comm", request.pipeline.comms());
  const core::Platform& plat = request.platform;
  sink.reals("speeds", plat.speeds());
  if (plat.isCommHomogeneous()) {
    sink.reals("bandwidth", {plat.bandwidth()});
  } else {
    const std::size_t p = plat.processorCount();
    std::vector<Real> links;
    links.reserve(p * p);
    for (std::size_t u = 0; u < p; ++u) {
      for (std::size_t v = 0; v < p; ++v) {
        links.push_back(u == v ? Real(0) : plat.bandwidth(u, v));
      }
    }
    std::vector<Real> in(p), out(p);
    for (std::size_t u = 0; u < p; ++u) {
      in[u] = plat.inputBandwidth(u);
      out[u] = plat.outputBandwidth(u);
    }
    sink.reals("links", links);
    sink.reals("input-bandwidth", in);
    sink.reals("output-bandwidth", out);
  }
  sink.tag(modelTag(request.model));
}

/// Streams every model-relevant field of `request` through one sink. Keeping
/// the canonical text and the hash on the same field walk guarantees they can
/// never drift apart.
template <typename Sink>
void walkRequest(const Request& request, Sink&& sink) {
  sink.tag("pipesched-request-v1");
  walkInstance(request, sink);
  sink.size("points", request.sweep.points);
  sink.reals("range", {request.sweep.range});
}

/// The sub-result cache's identity: the instance under its own version tag,
/// no sweep fields.
template <typename Sink>
void walkInstanceOnly(const Request& request, Sink&& sink) {
  sink.tag("pipesched-instance-v1");
  walkInstance(request, sink);
}

struct TextSink {
  std::ostringstream os;
  void tag(const char* t) { os << t << '\n'; }
  void reals(const char* t, const std::vector<Real>& v) { renderReals(os, t, v); }
  void size(const char* t, std::size_t v) { os << t << ':' << v << '\n'; }
};

struct HashSink {
  core::Hasher hi{core::Hasher::kOffsetBasis};
  core::Hasher lo{0x9e3779b97f4a7c15ull};  // independent second stream
  void tag(const char* t) {
    const std::string s(t);
    hi.str(s);
    lo.str(s);
  }
  void reals(const char* t, const std::vector<Real>& v) {
    tag(t);
    hi.reals(v);
    lo.reals(v);
  }
  void size(const char* t, std::size_t v) {
    tag(t);
    hi.size(v);
    lo.size(v);
  }
};

/// Feeds one walk into both sinks — requestIdentity()'s single pass.
struct DualSink {
  TextSink text;
  HashSink hash;
  void tag(const char* t) {
    text.tag(t);
    hash.tag(t);
  }
  void reals(const char* t, const std::vector<Real>& v) {
    text.reals(t, v);
    hash.reals(t, v);
  }
  void size(const char* t, std::size_t v) {
    text.size(t, v);
    hash.size(t, v);
  }
};

}  // namespace

// Exact round-trippable rendering; hexfloat so distinct doubles never
// collapse to one decimal representation.
std::string renderRealHex(Real v) {
  char buf[48];
  std::snprintf(buf, sizeof(buf), "%a", v);
  return buf;
}

std::string Fingerprint::hex() const { return core::hashHex(hi) + core::hashHex(lo); }

RequestIdentity requestIdentity(const Request& request) {
  DualSink sink;
  walkRequest(request, sink);
  return RequestIdentity{Fingerprint{sink.hash.hi.digest(), sink.hash.lo.digest()},
                         std::move(sink.text.os).str()};
}

Fingerprint instanceFingerprint(const Request& request) {
  HashSink sink;
  walkInstanceOnly(request, sink);
  return Fingerprint{sink.hi.digest(), sink.lo.digest()};
}

}  // namespace pipesched::service
