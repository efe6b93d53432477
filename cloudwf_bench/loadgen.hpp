// The service load generator: one thread multiplexing a few keep-alive
// connections with ppoll. Requests are pre-encoded HTTP bytes; a request
// is written the moment it is due (pipelined behind earlier ones on the
// least-loaded connection), and each response is read as soon as it
// arrives, so a measured latency never includes time the generator spent
// elsewhere. Responses on one connection come back in request order, which
// is how they are matched to their requests.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "harness.hpp"

namespace cloudwf_bench {

class LoadGen {
 public:
  /// Called for each complete response: the request's id, its HTTP status,
  /// its body and the time its last byte was read.
  using OnResponse = std::function<void(std::uint64_t id, int status,
                                        std::string_view body,
                                        Clock::time_point done)>;

  /// Connects `connections` sockets to 127.0.0.1:port. Throws
  /// std::runtime_error when a connect fails.
  LoadGen(std::uint16_t port, std::size_t connections);
  ~LoadGen();

  LoadGen(const LoadGen&) = delete;
  LoadGen& operator=(const LoadGen&) = delete;

  /// Queues `wire` on the connection with the fewest outstanding requests
  /// (or on `connection` when given) and writes as much as the socket takes.
  void send(std::uint64_t id, const std::string& wire,
            std::size_t connection = kAnyConnection);

  /// Waits until `until` or until at least one response completes, and
  /// reports every complete response. Throws std::runtime_error when the
  /// server closes a connection or sends a malformed response.
  void pump(Clock::time_point until, const OnResponse& on_response);

  [[nodiscard]] std::size_t outstanding() const noexcept;
  [[nodiscard]] std::size_t connections() const noexcept {
    return conns_.size();
  }
  /// Connection the last response arrived on (for closed-loop refills).
  [[nodiscard]] std::size_t last_connection() const noexcept {
    return last_connection_;
  }

  static constexpr std::size_t kAnyConnection = static_cast<std::size_t>(-1);

 private:
  struct Conn {
    int fd = -1;
    std::string out;
    std::size_t out_off = 0;
    std::string in;
    std::deque<std::uint64_t> pending;  ///< request ids, oldest first
  };
  void flush(Conn& conn);
  void read_ready(Conn& conn, std::size_t index, const OnResponse& on_response);

  std::vector<Conn> conns_;
  std::size_t last_connection_ = 0;
  std::size_t rotate_ = 0;
};

}  // namespace cloudwf_bench
