#include "loadgen.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <charconv>
#include <cstring>
#include <stdexcept>

namespace cloudwf_bench {

namespace {

/// Parses one complete response at the front of `buf`. Returns the bytes it
/// occupies, or 0 when more bytes are needed.
std::size_t parse_response(std::string_view buf, int& status,
                           std::string_view& body) {
  const std::size_t head_end = buf.find("\r\n\r\n");
  if (head_end == std::string_view::npos) return 0;
  const std::string_view head = buf.substr(0, head_end);
  constexpr std::string_view kLength = "\r\nContent-Length: ";
  const std::size_t at = head.find(kLength);
  std::size_t length = 0;
  if (head.substr(0, 9) != "HTTP/1.1 " || head.size() < 12 ||
      std::from_chars(head.data() + 9, head.data() + 12, status).ec !=
          std::errc{} ||
      at == std::string_view::npos ||
      std::from_chars(head.data() + at + kLength.size(),
                      head.data() + head.size(), length)
              .ec != std::errc{})
    throw std::runtime_error("malformed response head: " + std::string(head));
  const std::size_t total = head_end + 4 + length;
  if (buf.size() < total) return 0;
  body = buf.substr(head_end + 4, length);
  return total;
}

}  // namespace

LoadGen::LoadGen(std::uint16_t port, std::size_t connections) {
  // Wake on the due time, not up to the default 50 us timer slack later.
  ::prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);
  conns_.resize(connections);
  for (Conn& conn : conns_) {
    conn.fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    if (conn.fd < 0 || ::connect(conn.fd, reinterpret_cast<sockaddr*>(&addr),
                                 sizeof addr) != 0) {
      const std::string err = std::strerror(errno);
      for (Conn& c : conns_)
        if (c.fd >= 0) ::close(c.fd);
      throw std::runtime_error("connect to port " + std::to_string(port) +
                               ": " + err);
    }
    const int one = 1;
    ::setsockopt(conn.fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
    ::fcntl(conn.fd, F_SETFL, ::fcntl(conn.fd, F_GETFL) | O_NONBLOCK);
  }
}

LoadGen::~LoadGen() {
  for (Conn& conn : conns_)
    if (conn.fd >= 0) ::close(conn.fd);
}

void LoadGen::send(std::uint64_t id, const std::string& wire,
                   std::size_t connection) {
  if (connection == kAnyConnection) {
    connection = rotate_++ % conns_.size();
    for (std::size_t i = 0; i < conns_.size(); ++i)
      if (conns_[i].pending.size() < conns_[connection].pending.size())
        connection = i;
  }
  Conn& conn = conns_[connection];
  conn.pending.push_back(id);
  conn.out += wire;
  flush(conn);
}

void LoadGen::flush(Conn& conn) {
  while (conn.out_off < conn.out.size()) {
    const ssize_t n = ::send(conn.fd, conn.out.data() + conn.out_off,
                             conn.out.size() - conn.out_off, MSG_NOSIGNAL);
    if (n > 0) {
      conn.out_off += static_cast<std::size_t>(n);
    } else if (n < 0 && errno == EINTR) {
      continue;
    } else if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      return;
    } else {
      throw std::runtime_error(std::string("send: ") + std::strerror(errno));
    }
  }
  conn.out.clear();
  conn.out_off = 0;
}

void LoadGen::pump(Clock::time_point until, const OnResponse& on_response) {
  std::vector<pollfd> fds(conns_.size());
  for (std::size_t i = 0; i < conns_.size(); ++i) {
    fds[i].fd = conns_[i].fd;
    fds[i].events = static_cast<short>(
        POLLIN | (conns_[i].out.empty() ? 0 : POLLOUT));
  }
  const auto wait = std::max(Clock::duration::zero(), until - Clock::now());
  const auto ns = std::chrono::duration_cast<std::chrono::nanoseconds>(wait);
  timespec ts{};
  ts.tv_sec = static_cast<time_t>(ns.count() / 1'000'000'000);
  ts.tv_nsec = static_cast<long>(ns.count() % 1'000'000'000);
  const int ready = ::ppoll(fds.data(), fds.size(), &ts, nullptr);
  if (ready < 0) {
    if (errno == EINTR) return;
    throw std::runtime_error(std::string("ppoll: ") + std::strerror(errno));
  }
  for (std::size_t i = 0; i < conns_.size(); ++i) {
    if ((fds[i].revents & POLLOUT) != 0) flush(conns_[i]);
    if ((fds[i].revents & (POLLIN | POLLHUP | POLLERR)) != 0)
      read_ready(conns_[i], i, on_response);
  }
}

void LoadGen::read_ready(Conn& conn, std::size_t index,
                         const OnResponse& on_response) {
  char buf[65536];
  for (;;) {
    const ssize_t n = ::recv(conn.fd, buf, sizeof buf, 0);
    if (n > 0) {
      conn.in.append(buf, static_cast<std::size_t>(n));
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
    throw std::runtime_error(n == 0 ? "server closed a connection"
                                    : std::string("recv: ") +
                                          std::strerror(errno));
  }
  const Clock::time_point done = Clock::now();
  std::size_t offset = 0;
  for (;;) {
    int status = 0;
    std::string_view body;
    const std::size_t used = parse_response(
        std::string_view(conn.in).substr(offset), status, body);
    if (used == 0) break;
    if (conn.pending.empty())
      throw std::runtime_error("response without an outstanding request");
    const std::uint64_t id = conn.pending.front();
    conn.pending.pop_front();
    last_connection_ = index;
    on_response(id, status, body, done);
    offset += used;
  }
  conn.in.erase(0, offset);
}

std::size_t LoadGen::outstanding() const noexcept {
  std::size_t n = 0;
  for (const Conn& conn : conns_) n += conn.pending.size();
  return n;
}

}  // namespace cloudwf_bench
