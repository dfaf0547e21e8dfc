#include "pipesched/service/fingerprint.hpp"

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string_view>

#include "pipesched/core/hash.hpp"

namespace pipesched::service {

namespace {

std::string_view modelTag(core::CommModel model) {
  return model == core::CommModel::kSequential ? "sequential" : "overlapped";
}

/// A real-valued field: its tag and element count, then each value.
template <typename Sink>
void realsField(Sink& sink, std::string_view tag, const std::vector<Real>& values) {
  sink.size(tag, values.size());
  for (const Real v : values) sink.real(v);
}

/// Streams the sweep-independent *instance* fields (pipeline, platform,
/// comm model) through one sink. walkRequest layers the sweep spec on top;
/// the instance identity (sub-result cache key) stops here.
template <typename Sink>
void walkInstance(const Request& request, Sink& sink) {
  realsField(sink, "work", request.pipeline.works());
  realsField(sink, "comm", request.pipeline.comms());
  const core::Platform& plat = request.platform;
  realsField(sink, "speeds", plat.speeds());
  if (plat.isCommHomogeneous()) {
    sink.size("bandwidth", 1);
    sink.real(plat.bandwidth());
  } else {
    const std::size_t p = plat.processorCount();
    sink.size("links", p * p);
    for (std::size_t u = 0; u < p; ++u) {
      for (std::size_t v = 0; v < p; ++v) sink.real(u == v ? Real(0) : plat.bandwidth(u, v));
    }
    sink.size("input-bandwidth", p);
    for (std::size_t u = 0; u < p; ++u) sink.real(plat.inputBandwidth(u));
    sink.size("output-bandwidth", p);
    for (std::size_t u = 0; u < p; ++u) sink.real(plat.outputBandwidth(u));
  }
  sink.tag(modelTag(request.model));
}

/// Streams every model-relevant field of `request` through one sink. Keeping
/// the key and the hash on the same field walk guarantees they can never
/// drift apart.
template <typename Sink>
void walkRequest(const Request& request, Sink& sink) {
  sink.tag("pipesched-request-v1");
  walkInstance(request, sink);
  sink.size("points", request.sweep.points);
  sink.size("range", 1);
  sink.real(request.sweep.range);
}

/// The sub-result cache's identity: the instance under its own version tag,
/// no sweep fields.
template <typename Sink>
void walkInstanceOnly(const Request& request, Sink& sink) {
  sink.tag("pipesched-instance-v1");
  walkInstance(request, sink);
}

/// Counts the bytes KeySink will append, so the key is allocated once.
struct KeySizeSink {
  std::size_t bytes = 0;
  void tag(std::string_view t) { bytes += t.size() + 1; }
  void size(std::string_view t, std::size_t) { bytes += t.size() + 1 + sizeof(std::uint64_t); }
  void real(Real) { bytes += sizeof(Real); }
};

/// The exact key: each tag NUL-terminated, each count as 8 bytes and each
/// real as its IEEE-754 bit pattern (so +0 and -0 stay distinct).
struct KeySink {
  std::string bytes;
  void tag(std::string_view t) {
    bytes.append(t);
    bytes.push_back('\0');
  }
  void size(std::string_view t, std::size_t v) {
    tag(t);
    raw(static_cast<std::uint64_t>(v));
  }
  void real(Real v) {
    std::uint64_t bits = 0;
    static_assert(sizeof(Real) == sizeof(bits));
    std::memcpy(&bits, &v, sizeof(bits));
    raw(bits);
  }
  void raw(std::uint64_t v) { bytes.append(reinterpret_cast<const char*>(&v), sizeof(v)); }
};

struct HashSink {
  core::Hasher hi{core::Hasher::kOffsetBasis};
  core::Hasher lo{0x9e3779b97f4a7c15ull};  // independent second stream
  void tag(std::string_view t) {
    hi.str(t);
    lo.str(t);
  }
  void size(std::string_view t, std::size_t v) {
    tag(t);
    hi.size(v);
    lo.size(v);
  }
  void real(Real v) {
    hi.real(v);
    lo.real(v);
  }
};

/// Feeds one walk into both sinks — requestIdentity()'s single pass.
struct DualSink {
  KeySink key;
  HashSink hash;
  void tag(std::string_view t) {
    key.tag(t);
    hash.tag(t);
  }
  void size(std::string_view t, std::size_t v) {
    key.size(t, v);
    hash.size(t, v);
  }
  void real(Real v) {
    key.real(v);
    hash.real(v);
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

void Fingerprint::hex(char* out) const {
  core::hashHex(hi, out);
  core::hashHex(lo, out + 16);
}

std::string Fingerprint::hex() const {
  std::string out(32, '0');
  hex(out.data());
  return out;
}

RequestIdentity requestIdentity(const Request& request) {
  KeySizeSink size;
  walkRequest(request, size);
  DualSink sink;
  sink.key.bytes.reserve(size.bytes);
  walkRequest(request, sink);
  return RequestIdentity{Fingerprint{sink.hash.hi.digest(), sink.hash.lo.digest()},
                         std::move(sink.key.bytes)};
}

Fingerprint instanceFingerprint(const Request& request) {
  HashSink sink;
  walkInstanceOnly(request, sink);
  return Fingerprint{sink.hi.digest(), sink.lo.digest()};
}

}  // namespace pipesched::service
