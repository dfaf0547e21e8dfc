// Minimal HTTP/1.1 for the serving tier: an incremental request parser (the
// server side) and response rendering — just enough protocol for curl,
// Prometheus scrapers, and load balancers to talk to `pipesched serve
// --listen`. Bodies are delimited by Content-Length only (no chunked
// ingestion; responses always carry an explicit length). The parser is
// push-based so the event loop can feed it whatever read() returned and ask
// "complete yet?" — it never blocks and never throws on wire garbage
// (malformed input becomes a status-coded error the server answers with).
#pragma once

#include <cstddef>
#include <string>
#include <utility>
#include <vector>

#include "pipesched/io/jsonl_fast.hpp"

namespace pipesched::net {

/// One parsed request. Header names are matched case-insensitively via
/// header(); values are returned with surrounding whitespace trimmed.
struct HttpRequest {
  std::string method;   ///< uppercase on the wire ("GET", "POST")
  std::string target;   ///< request target as sent ("/stats", "/solve?x=1")
  std::string version;  ///< "HTTP/1.1"
  std::vector<std::pair<std::string, std::string>> headers;
  std::string body;
  bool keepAlive = true;  ///< HTTP/1.1 default, honours Connection: close

  /// The target with any query string stripped — what handlers route on.
  [[nodiscard]] std::string path() const;

  /// First header with this (case-insensitive) name, or nullptr.
  [[nodiscard]] const std::string* header(const std::string& name) const;
};

/// Incremental request parser. Feed bytes with consume(); when it reports
/// kComplete, request() holds the parsed request and any pipelined leftover
/// bytes stay buffered — reset() re-arms the parser on them for the next
/// request on the same connection.
class HttpParser {
 public:
  explicit HttpParser(std::size_t maxBodyBytes = io::kMaxRequestBytes,
                      std::size_t maxHeaderBytes = 64u << 10)
      : maxBodyBytes_(maxBodyBytes), maxHeaderBytes_(maxHeaderBytes) {}

  enum class Status { kNeedMore, kComplete, kError };

  /// Appends `data` and advances. Once kComplete/kError is reached, further
  /// consume() calls return the same status until reset().
  Status consume(const char* data, std::size_t n);
  Status consume(const std::string& data) { return consume(data.data(), data.size()); }

  [[nodiscard]] Status status() const noexcept { return status_; }
  [[nodiscard]] const HttpRequest& request() const noexcept { return request_; }

  /// True once any bytes of the in-progress request are buffered — the
  /// slowloris guard's "mid-request" test (an idle keep-alive connection
  /// has started() == false after reset()).
  [[nodiscard]] bool started() const noexcept { return !buffer_.empty() || headersDone_; }

  /// On kError: the HTTP status to answer with (400 bad request, 413 body
  /// too large, 431 headers too large, 501 unsupported) and a short reason.
  [[nodiscard]] int errorStatus() const noexcept { return errorStatus_; }
  [[nodiscard]] const std::string& error() const noexcept { return error_; }

  /// Re-arms for the next request, keeping unconsumed pipelined bytes. May
  /// immediately produce kComplete again — callers loop on status().
  Status reset();

 private:
  Status fail(int status, std::string message);
  Status advance();

  std::string buffer_;
  std::size_t bodyStart_ = 0;     ///< offset of the body inside buffer_
  std::size_t contentLength_ = 0;
  bool headersDone_ = false;
  Status status_ = Status::kNeedMore;
  HttpRequest request_;
  int errorStatus_ = 400;
  std::string error_;
  std::size_t maxBodyBytes_;
  std::size_t maxHeaderBytes_;
};

/// Renders a full response head + body with Content-Length and Connection
/// headers. `extraHeaders` lines, when given, must each end with "\r\n".
[[nodiscard]] std::string renderHttpResponse(int status, const std::string& contentType,
                                             const std::string& body, bool keepAlive,
                                             const std::string& extraHeaders = {});

/// Canonical reason phrase ("OK", "Service Unavailable", ...).
[[nodiscard]] const char* httpStatusText(int status) noexcept;

}  // namespace pipesched::net
