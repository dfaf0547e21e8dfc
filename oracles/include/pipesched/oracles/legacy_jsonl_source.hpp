// The getline + io::parseJson JSONL reader: the tree-walking reference that
// stream::JsonlSource's in-place reader must match request for request and
// error for error (tests/io/test_jsonl_fast.cpp, bench/perf_stream).
// Test- and bench-only.
#pragma once

#include <istream>
#include <optional>
#include <utility>

#include "pipesched/stream/source.hpp"

namespace pipesched::oracles {

/// Same protocol, defaults, error handler and parse metrics as
/// stream::JsonlSource, read one std::getline at a time into an
/// io::JsonValue tree.
class LegacyJsonlSource : public stream::Source {
 public:
  LegacyJsonlSource(std::istream& in, stream::JsonlDefaults defaults = {},
                    stream::JsonlSource::ErrorHandler onError = {})
      : in_(&in), defaults_(std::move(defaults)), onError_(std::move(onError)) {}

  [[nodiscard]] std::optional<service::Request> next() override;

  /// Lines consumed so far (including skipped/blank ones).
  [[nodiscard]] std::size_t linesRead() const noexcept { return lineNo_; }

 private:
  std::istream* in_;
  stream::JsonlDefaults defaults_;
  stream::JsonlSource::ErrorHandler onError_;
  std::size_t lineNo_ = 0;
};

}  // namespace pipesched::oracles
