// Wire-layer tests: strict request parsing (whole head and incremental,
// with pipelining and size limits), response serialization, and the event
// loop's socket reads (pipelined leftovers, size limits, protocol errors
// answered with their status) over one loopback connection. The full
// server's socket paths are tested in service_test.cpp.
#include "svc/http.hpp"

#include <arpa/inet.h>
#include <gtest/gtest.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <memory>
#include <string>

#include "svc/event_loop.hpp"

namespace cloudwf::svc {
namespace {

TEST(HttpParse, ParsesRequestLineAndHeaders) {
  std::string error;
  const auto req = parse_request_head(
      "POST /v1/evaluate HTTP/1.1\r\n"
      "Host: localhost\r\n"
      "Content-Type:  application/json \r\n"
      "\r\n",
      &error);
  ASSERT_TRUE(req.has_value()) << error;
  EXPECT_EQ(req->method, "POST");
  EXPECT_EQ(req->target, "/v1/evaluate");
  EXPECT_EQ(req->version, "HTTP/1.1");
  EXPECT_EQ(req->header("host"), "localhost");
  EXPECT_EQ(req->header("content-type"), "application/json");  // trimmed
  EXPECT_EQ(req->header("absent"), "");
}

TEST(HttpParse, RejectsMalformedInput) {
  std::string error;
  EXPECT_FALSE(parse_request_head("GET\r\n\r\n", &error));
  EXPECT_FALSE(parse_request_head("GET /x FTP/1.0\r\n\r\n", &error));
  EXPECT_FALSE(parse_request_head("GET /x HTTP/1.1\r\nno-colon\r\n\r\n",
                                  &error));
  EXPECT_FALSE(error.empty());
}

TEST(HttpParse, KeepAliveDefaultsOnForHttp11) {
  std::string error;
  auto req = parse_request_head("GET / HTTP/1.1\r\n\r\n", &error);
  ASSERT_TRUE(req.has_value());
  EXPECT_TRUE(req->keep_alive());

  req = parse_request_head("GET / HTTP/1.1\r\nConnection: close\r\n\r\n",
                           &error);
  ASSERT_TRUE(req.has_value());
  EXPECT_FALSE(req->keep_alive());
}

TEST(HttpSerialize, EmitsContentLengthFraming) {
  HttpResponse response;
  response.status = 200;
  response.body = R"({"ok":true})";
  const std::string wire = serialize_response(response);
  EXPECT_NE(wire.find("HTTP/1.1 200 OK\r\n"), std::string::npos);
  EXPECT_NE(wire.find("Content-Length: 11\r\n"), std::string::npos);
  EXPECT_NE(wire.find("Content-Type: application/json\r\n"),
            std::string::npos);
  EXPECT_EQ(wire.find("Connection: close"), std::string::npos);
  EXPECT_EQ(wire.substr(wire.size() - response.body.size()), response.body);
}

TEST(HttpSerialize, CloseConnectionHeader) {
  HttpResponse response;
  response.close_connection = true;
  EXPECT_NE(serialize_response(response).find("Connection: close\r\n"),
            std::string::npos);
}

TEST(HttpSerialize, ReasonPhrasesForServiceStatuses) {
  EXPECT_EQ(reason_phrase(200), "OK");
  EXPECT_EQ(reason_phrase(400), "Bad Request");
  EXPECT_EQ(reason_phrase(404), "Not Found");
  EXPECT_EQ(reason_phrase(429), "Too Many Requests");
  EXPECT_EQ(reason_phrase(503), "Service Unavailable");
  EXPECT_EQ(reason_phrase(504), "Gateway Timeout");
}

// A connected socket pair: the test writes raw bytes into the client end,
// and one EventLoop reads the accepted end and echoes each request as
// "METHOD TARGET BODY". A rejected request is answered with its status and
// the loop then closes the connection, so read_to_close() returns
// everything the loop wrote.
class SocketPairTest : public ::testing::Test {
 protected:
  void start_loop(const HttpLimits& limits = {}) {
    in_addr loopback{};
    loopback.s_addr = htonl(INADDR_LOOPBACK);
    listener_ = listen_tcp(loopback, 0);
    EventLoop::Config config;
    config.listen_fd = listener_.fd;
    config.limits = limits;
    loop_ = std::make_unique<EventLoop>(
        config, [](HttpRequest&& request, HttpResponse& sync,
                   EventLoop::Completion) {
          sync.content_type = "text/plain";
          sync.body =
              request.method + " " + request.target + " " + request.body;
          return true;
        });
    loop_->start();

    client_ = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
    ASSERT_GE(client_, 0);
    // A loop that never answers or never closes fails the read below
    // instead of hanging it.
    const timeval timeout{10, 0};
    ::setsockopt(client_, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof timeout);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr = loopback;
    addr.sin_port = htons(listener_.port);
    ASSERT_EQ(::connect(client_, reinterpret_cast<sockaddr*>(&addr),
                        sizeof addr),
              0);
  }
  void TearDown() override {
    if (client_ >= 0) ::close(client_);
    loop_.reset();  // drains and joins the loop thread
    if (listener_.fd >= 0) ::close(listener_.fd);
  }
  void close_writer() { ASSERT_EQ(::shutdown(client_, SHUT_WR), 0); }
  void send_all(const std::string& data) {
    ASSERT_EQ(::send(client_, data.data(), data.size(), MSG_NOSIGNAL),
              static_cast<ssize_t>(data.size()));
  }
  std::string read_to_close() {
    std::string wire;
    char chunk[4096];
    ssize_t n;
    while ((n = ::recv(client_, chunk, sizeof chunk, 0)) > 0)
      wire.append(chunk, static_cast<std::size_t>(n));
    EXPECT_EQ(n, 0) << "the loop did not close the connection";
    return wire;
  }
  static std::string echo(const std::string& body) {
    HttpResponse response;
    response.content_type = "text/plain";
    response.body = body;
    return serialize_response(response);
  }

  Listener listener_;
  std::unique_ptr<EventLoop> loop_;
  int client_ = -1;
};

TEST_F(SocketPairTest, ReadsBodyAndKeepsPipelinedLeftovers) {
  start_loop();
  const std::string first =
      "POST /v1/evaluate HTTP/1.1\r\nContent-Length: 4\r\n\r\nabcd";
  const std::string second = "GET /health HTTP/1.1\r\n\r\n";
  send_all(first + second);  // both requests arrive in the same read
  close_writer();

  // Both answered in order on the kept-alive connection, then closed at EOF.
  EXPECT_EQ(read_to_close(),
            echo("POST /v1/evaluate abcd") + echo("GET /health "));
}

TEST_F(SocketPairTest, RejectsOversizedDeclaredBody) {
  HttpLimits limits;
  limits.max_body_bytes = 16;
  start_loop(limits);
  send_all("POST /v1/evaluate HTTP/1.1\r\nContent-Length: 17\r\n\r\n");
  const std::string wire = read_to_close();
  EXPECT_EQ(wire.rfind("HTTP/1.1 413 ", 0), 0u) << wire;
}

TEST_F(SocketPairTest, RejectsOversizedHeaderBlock) {
  HttpLimits limits;
  limits.max_header_bytes = 64;
  start_loop(limits);
  // No blank-line terminator: the loop must give up once the accumulated
  // header block passes the limit instead of buffering forever.
  send_all("GET / HTTP/1.1\r\nX-Pad: " + std::string(128, 'x'));
  const std::string wire = read_to_close();
  EXPECT_EQ(wire.rfind("HTTP/1.1 413 ", 0), 0u) << wire;
}

TEST_F(SocketPairTest, MalformedContentLengthIsRejected) {
  start_loop();
  send_all("POST / HTTP/1.1\r\nContent-Length: 12abc\r\n\r\n");
  const std::string wire = read_to_close();
  EXPECT_EQ(wire.rfind("HTTP/1.1 400 ", 0), 0u) << wire;
}

TEST_F(SocketPairTest, PeerCloseMidBodyIsMalformed) {
  start_loop();
  send_all("POST / HTTP/1.1\r\nContent-Length: 10\r\n\r\nhalf");
  close_writer();
  const std::string wire = read_to_close();
  EXPECT_EQ(wire.rfind("HTTP/1.1 400 ", 0), 0u) << wire;
  EXPECT_NE(wire.find("connection closed mid-body"), std::string::npos)
      << wire;
}

// --- regressions found by the fuzz/correctness harness (PR 5) ---

TEST(HttpParse, RejectsDuplicateHeaders) {
  // Pre-fix: the header map silently kept the last duplicate — with two
  // Content-Length values, this parser and any proxy in front of it could
  // frame the body differently (request smuggling).
  std::string error;
  EXPECT_FALSE(parse_request_head(
      "POST / HTTP/1.1\r\nContent-Length: 4\r\nContent-Length: 0\r\n\r\n",
      &error));
  EXPECT_NE(error.find("duplicate header"), std::string::npos);

  // Case-insensitive: the same name in different casing is still a duplicate.
  EXPECT_FALSE(parse_request_head(
      "GET / HTTP/1.1\r\nX-Tag: a\r\nx-tag: b\r\n\r\n", &error));
}

TEST_F(SocketPairTest, RejectsTransferEncodingAsNotImplemented) {
  // Pre-fix: Transfer-Encoding was ignored, so the chunked body bytes stayed
  // in the buffer and were parsed as the next pipelined request.
  start_loop();
  send_all(
      "POST /v1/evaluate HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n"
      "4\r\nabcd\r\n0\r\n\r\n");
  const std::string wire = read_to_close();
  EXPECT_EQ(wire.rfind("HTTP/1.1 501 ", 0), 0u) << wire;
  EXPECT_NE(wire.find("Transfer-Encoding"), std::string::npos) << wire;
}

TEST_F(SocketPairTest, EmptyContentLengthIsMalformedNotZero) {
  start_loop();
  send_all("POST / HTTP/1.1\r\nContent-Length:\r\n\r\n");
  const std::string wire = read_to_close();
  EXPECT_EQ(wire.rfind("HTTP/1.1 400 ", 0), 0u) << wire;
}

TEST_F(SocketPairTest, HugeContentLengthCannotOverflow) {
  // 20 digits overflow std::size_t if accumulated naively; the limit check
  // inside the digit loop must fire before any wraparound.
  start_loop();
  send_all(
      "POST / HTTP/1.1\r\nContent-Length: 99999999999999999999\r\n\r\n");
  const std::string wire = read_to_close();
  EXPECT_EQ(wire.rfind("HTTP/1.1 413 ", 0), 0u) << wire;
}

TEST(HttpSerialize, NotImplementedReasonPhrase) {
  EXPECT_EQ(reason_phrase(501), "Not Implemented");
}

// --- incremental parser (the event loop's per-read entry point) ---

TEST(HttpIncremental, ByteAtATimeNeedsMoreUntilComplete) {
  const std::string wire =
      "POST /v1/evaluate HTTP/1.1\r\nContent-Length: 4\r\n\r\nabcd";
  // Every strict prefix is "need_more"; only the full buffer parses.
  for (std::size_t n = 0; n < wire.size(); ++n) {
    const ParseResult r = parse_http_request(wire.substr(0, n));
    EXPECT_EQ(r.status, ParseStatus::need_more) << "prefix length " << n;
  }
  const ParseResult full = parse_http_request(wire);
  ASSERT_EQ(full.status, ParseStatus::ok) << full.error;
  EXPECT_EQ(full.request.body, "abcd");
  EXPECT_EQ(full.consumed, wire.size());
}

TEST(HttpIncremental, ConsumedStopsAtRequestBoundary) {
  const std::string first = "GET /health HTTP/1.1\r\n\r\n";
  const std::string second = "GET /stats HTTP/1.1\r\n\r\n";
  const std::string buffer = first + second;
  const ParseResult one = parse_http_request(buffer);
  ASSERT_EQ(one.status, ParseStatus::ok);
  EXPECT_EQ(one.request.target, "/health");
  EXPECT_EQ(one.consumed, first.size());
  // The event loop erases `consumed` bytes and parses again.
  const ParseResult two =
      parse_http_request(std::string_view(buffer).substr(one.consumed));
  ASSERT_EQ(two.status, ParseStatus::ok);
  EXPECT_EQ(two.request.target, "/stats");
  EXPECT_EQ(two.consumed, second.size());
}

TEST(HttpIncremental, RejectionsMapToTheirStatuses) {
  EXPECT_EQ(parse_http_request("GET\r\n\r\n").status, ParseStatus::malformed);
  EXPECT_EQ(
      parse_http_request("POST / HTTP/1.1\r\nContent-Length: huh\r\n\r\n")
          .status,
      ParseStatus::malformed);
  EXPECT_EQ(parse_http_request(
                "POST / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n")
                .status,
            ParseStatus::not_implemented);
  // An empty Content-Length value is malformed, not zero.
  EXPECT_EQ(parse_http_request("POST / HTTP/1.1\r\nContent-Length:\r\n\r\n")
                .status,
            ParseStatus::malformed);
  // 20 digits overflow std::size_t if accumulated naively; the limit check
  // inside the digit loop must fire before any wraparound.
  EXPECT_EQ(parse_http_request("POST / HTTP/1.1\r\n"
                               "Content-Length: 99999999999999999999\r\n\r\n")
                .status,
            ParseStatus::too_large);

  HttpLimits limits;
  limits.max_body_bytes = 8;
  EXPECT_EQ(parse_http_request(
                "POST / HTTP/1.1\r\nContent-Length: 9\r\n\r\n", limits)
                .status,
            ParseStatus::too_large);
  // An unterminated header block past the cap must fail, not ask for more.
  limits.max_header_bytes = 32;
  EXPECT_EQ(
      parse_http_request("GET / HTTP/1.1\r\nX-Pad: " + std::string(64, 'x'),
                         limits)
          .status,
      ParseStatus::too_large);
  // So must one that arrived whole: the same bytes split over two reads
  // would have failed above.
  EXPECT_EQ(parse_http_request(
                "GET / HTTP/1.1\r\nX-Pad: " + std::string(64, 'x') +
                    "\r\n\r\n",
                limits)
                .status,
            ParseStatus::too_large);
}

TEST(HttpIncremental, AgreesWithBlockingReaderOnABody) {
  const std::string wire =
      "POST /v1/rank HTTP/1.1\r\nContent-Type: application/json\r\n"
      "Content-Length: 2\r\n\r\n{}";
  const ParseResult r = parse_http_request(wire);
  ASSERT_EQ(r.status, ParseStatus::ok);
  EXPECT_EQ(r.request.method, "POST");
  EXPECT_EQ(r.request.target, "/v1/rank");
  EXPECT_EQ(r.request.header("content-type"), "application/json");
  EXPECT_EQ(r.request.body, "{}");
}

}  // namespace
}  // namespace cloudwf::svc
