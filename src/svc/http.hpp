// Minimal HTTP/1.1 over POSIX sockets — the service front end's wire layer.
//
// Deliberately tiny and dependency-free: a strict incremental request
// parser (request line + headers + Content-Length body, bounded sizes) that
// the event loop runs after every read, a response serializer, and a
// blocking keep-alive client used by the load generator, the sweep fabric,
// the benches and the tests. No TLS, no chunked encoding — the service
// speaks JSON or binary frames over POST/GET with explicit Content-Length,
// which is all `cloudwf serve` needs and all `cloudwf_load` generates.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace cloudwf::svc {

struct HttpRequest {
  std::string method;   ///< "GET", "POST", ...
  std::string target;   ///< request target, e.g. "/v1/evaluate"
  std::string version;  ///< "HTTP/1.1"
  std::map<std::string, std::string> headers;  ///< names lower-cased
  std::string body;

  /// Header lookup by lower-case name; empty string when absent.
  [[nodiscard]] std::string_view header(const std::string& name) const;

  /// True when the client asked to keep the connection open (HTTP/1.1
  /// default unless "Connection: close").
  [[nodiscard]] bool keep_alive() const;
};

struct HttpResponse {
  int status = 200;
  std::string body;
  std::string content_type = "application/json";
  bool close_connection = false;  ///< emit "Connection: close"
};

/// Reason phrase for the handful of status codes the service emits.
[[nodiscard]] std::string_view reason_phrase(int status) noexcept;

/// Serializes a response with Content-Length (and Connection: close when
/// requested).
[[nodiscard]] std::string serialize_response(const HttpResponse& response);

/// Size limits for inbound requests (network input is untrusted).
struct HttpLimits {
  std::size_t max_header_bytes = 16 * 1024;
  std::size_t max_body_bytes = 1024 * 1024;
};

/// Outcome of one incremental parse attempt over an in-memory buffer.
enum class ParseStatus : std::uint8_t {
  need_more = 0,  ///< the buffer holds a valid prefix; read more bytes
  ok = 1,         ///< a complete request was parsed (`consumed` bytes)
  malformed = 2,
  too_large = 3,
  not_implemented = 4,
};

struct ParseResult {
  ParseStatus status = ParseStatus::need_more;
  HttpRequest request;        ///< valid when status == ok
  std::string error;          ///< human-readable detail on failure
  std::size_t consumed = 0;   ///< bytes of the buffer this request occupied
};

/// Incremental request parser: examines `buffer` (the unconsumed inbound
/// bytes of one connection) and either produces a complete request, asks
/// for more bytes, or rejects the prefix. Pure function of the buffer —
/// the event loop calls it after every read.
[[nodiscard]] ParseResult parse_http_request(std::string_view buffer,
                                             const HttpLimits& limits = {});

/// Blocking write of the whole buffer; false on error/EPIPE.
[[nodiscard]] bool write_all(int fd, std::string_view data);

/// Parses a complete header block held in memory — exposed for the unit
/// tests; parse_http_request uses it.
[[nodiscard]] std::optional<HttpRequest> parse_request_head(
    std::string_view head, std::string* error);

/// Blocking keep-alive HTTP client (loopback testing + load generation).
class HttpClient {
 public:
  HttpClient() = default;
  ~HttpClient();

  HttpClient(const HttpClient&) = delete;
  HttpClient& operator=(const HttpClient&) = delete;
  HttpClient(HttpClient&& other) noexcept;
  HttpClient& operator=(HttpClient&& other) noexcept;

  /// Connects to host:port (IPv4 dotted quad or "localhost").
  [[nodiscard]] bool connect(const std::string& host, std::uint16_t port);
  void disconnect();
  [[nodiscard]] bool connected() const noexcept { return fd_ >= 0; }

  /// Sends one request and blocks for the response. Reconnects once if the
  /// server closed the kept-alive connection. Returns nullopt on transport
  /// failure. `extra_headers` are emitted verbatim after the standard ones
  /// (e.g. {"X-Tenant", "alice"} for the multi-tenant endpoints).
  /// `content_type` selects the protocol (JSON by default; the compact
  /// binary protocol sends svc::kBinaryContentType — see svc/binproto.hpp).
  [[nodiscard]] std::optional<HttpResponse> request(
      const std::string& method, const std::string& target,
      const std::string& body = "",
      const std::vector<std::pair<std::string, std::string>>& extra_headers =
          {},
      const std::string& content_type = "application/json");

  /// The send half of request(): writes the request and returns without
  /// waiting for the response. Reconnects once if a kept-alive connection
  /// was dropped (safe — nothing is outstanding yet). Each successful
  /// send() must be paired with one receive() before the next send on this
  /// connection; the client does not pipeline. The load generator's
  /// connection pool uses this to keep several requests in flight across
  /// connections from one thread.
  [[nodiscard]] bool send(
      const std::string& method, const std::string& target,
      const std::string& body = "",
      const std::vector<std::pair<std::string, std::string>>& extra_headers =
          {},
      const std::string& content_type = "application/json");

  /// The receive half: blocks for the response to the last send(). Returns
  /// nullopt on transport failure — the in-flight request is lost and the
  /// caller must reconnect (receive() cannot replay a send).
  [[nodiscard]] std::optional<HttpResponse> receive();

 private:
  [[nodiscard]] std::string build_wire(
      const std::string& method, const std::string& target,
      const std::string& body,
      const std::vector<std::pair<std::string, std::string>>& extra_headers,
      const std::string& content_type) const;
  [[nodiscard]] std::optional<HttpResponse> roundtrip(const std::string& wire);

  std::string host_;
  std::uint16_t port_ = 0;
  int fd_ = -1;
  std::string carry_;
};

}  // namespace cloudwf::svc
