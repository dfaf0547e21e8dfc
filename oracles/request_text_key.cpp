#include "pipesched/oracles/request_text_key.hpp"

#include <sstream>
#include <vector>

#include "pipesched/service/fingerprint.hpp"

namespace pipesched::oracles {

namespace {

void renderReals(std::ostream& os, const char* tag, const std::vector<Real>& values) {
  os << tag << ':' << values.size();
  for (const Real v : values) os << ' ' << service::renderRealHex(v);
  os << '\n';
}

}  // namespace

std::string requestTextKey(const service::Request& request) {
  std::ostringstream os;
  os << "pipesched-request-v1\n";
  renderReals(os, "work", request.pipeline.works());
  renderReals(os, "comm", request.pipeline.comms());
  const core::Platform& plat = request.platform;
  renderReals(os, "speeds", plat.speeds());
  if (plat.isCommHomogeneous()) {
    renderReals(os, "bandwidth", {plat.bandwidth()});
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
    renderReals(os, "links", links);
    renderReals(os, "input-bandwidth", in);
    renderReals(os, "output-bandwidth", out);
  }
  os << (request.model == core::CommModel::kSequential ? "sequential" : "overlapped") << '\n';
  os << "points:" << request.sweep.points << '\n';
  renderReals(os, "range", {request.sweep.range});
  return std::move(os).str();
}

}  // namespace pipesched::oracles
