// The hexfloat text cache key service::requestIdentity built before its key
// became raw bytes: one line per field, one "%a" per real. Two requests'
// binary keys must be equal exactly when these texts are
// (tests/service/test_request_key.cpp). Test- and bench-only.
#pragma once

#include <string>

#include "pipesched/service/request.hpp"

namespace pipesched::oracles {

[[nodiscard]] std::string requestTextKey(const service::Request& request);

}  // namespace pipesched::oracles
