// Epoll event loop — the service's nonblocking accept/read/write path.
//
// One EventLoop owns one thread, one epoll instance and the connections it
// accepted. All loops share the server's listen socket (registered with
// EPOLLEXCLUSIVE so the kernel wakes one loop per pending accept instead of
// thundering all of them). Per connection the loop keeps a small state
// machine: unconsumed inbound bytes (fed through the incremental
// parse_http_request), a pending outbound buffer (flushed opportunistically,
// EPOLLOUT-armed only while a write actually stalls), and a single-request
// in-flight flag.
//
// Request handling is a callback: the server's dispatcher either answers
// inline (introspection endpoints, cache hits, protocol errors) or keeps
// the provided completion and returns `false`, in which case EPOLLIN
// interest is dropped until the completion fires. Completions are
// thread-safe: a batcher worker calls them from its own thread; the loop
// marshals them home through a mutex-guarded queue plus an eventfd wakeup,
// so connection state is only ever touched by the owning loop thread.
//
// Drain (`request_stop`): the loop deregisters the listen fd, closes idle
// connections, answers buffered complete requests with `Connection: close`,
// and exits once the last in-flight completion has been written out.
//
// Both HTTP servers in the tree run on this loop: `cloudwf serve`
// (svc::Server) and the pull-mode sweep coordinator
// (dist::CoordinatorServer). listen_tcp opens the socket either one hands
// to its loops.
#pragma once

#include <netinet/in.h>

#include <atomic>
#include <cstdint>
#include <functional>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "svc/http.hpp"

namespace cloudwf::svc {

/// A listening socket and the port it is bound to.
struct Listener {
  int fd = -1;
  std::uint16_t port = 0;
};

/// Opens a nonblocking, close-on-exec IPv4 TCP socket with SO_REUSEADDR,
/// binds it to address:port and listens. Port 0 asks the kernel for an
/// ephemeral port; Listener::port is the one it chose. Throws
/// std::runtime_error naming the call that failed.
[[nodiscard]] Listener listen_tcp(in_addr address, std::uint16_t port);

/// Per-loop observability counters, surfaced under "event_loops" on /stats.
/// Relaxed atomics: statistics, not synchronization.
struct EventLoopStats {
  std::atomic<std::uint64_t> connections_open{0};
  std::atomic<std::uint64_t> connections_accepted{0};
  std::atomic<std::uint64_t> epoll_wakeups{0};
  std::atomic<std::uint64_t> read_stalls{0};   ///< partial request, back to epoll
  std::atomic<std::uint64_t> write_stalls{0};  ///< partial write, EPOLLOUT armed
  std::atomic<std::uint64_t> completions{0};   ///< async answers marshalled in
};

class EventLoop {
 public:
  /// Invoked (exactly once, from any thread) with the response of a request
  /// the dispatcher chose to answer asynchronously.
  using Completion = std::function<void(HttpResponse&&)>;

  /// The server's request router. Returns true after filling `sync` for an
  /// inline answer; returns false after capturing `done` for a deferred one.
  /// Connection semantics (keep-alive vs close) are the loop's business —
  /// the dispatcher only sets HttpResponse::close_connection for protocol
  /// reasons (e.g. draining 503s).
  using Dispatcher =
      std::function<bool(HttpRequest&&, HttpResponse& sync, Completion done)>;

  /// Counters shared across loops (owned by the server); null pointers are
  /// simply not counted.
  struct SharedCounters {
    std::atomic<std::uint64_t>* connections_total = nullptr;
    std::atomic<std::uint64_t>* connections_active = nullptr;
    std::atomic<std::uint64_t>* connections_rejected = nullptr;
    std::atomic<std::uint64_t>* requests_total = nullptr;
    std::atomic<std::uint64_t>* bad_request_400 = nullptr;
  };

  struct Config {
    int listen_fd = -1;  ///< shared, nonblocking; not owned by the loop
    HttpLimits limits;
    std::size_t max_connections = 128;  ///< global cap via counters.connections_active
    SharedCounters counters;
  };

  EventLoop(Config config, Dispatcher dispatcher);
  ~EventLoop();

  EventLoop(const EventLoop&) = delete;
  EventLoop& operator=(const EventLoop&) = delete;

  void start();
  /// Begins the drain described in the header comment. Thread-safe,
  /// idempotent.
  void request_stop() noexcept;
  void join();

  [[nodiscard]] const EventLoopStats& stats() const noexcept { return stats_; }

 private:
  struct Connection {
    std::uint64_t id = 0;
    int fd = -1;               ///< -1: zombie awaiting its completion
    std::string in;            ///< unconsumed inbound bytes
    std::string out;           ///< pending outbound bytes
    std::size_t out_off = 0;
    bool keep_alive = true;    ///< of the request currently being answered
    bool in_flight = false;    ///< one request handed to the dispatcher
    bool want_write = false;   ///< EPOLLOUT armed
    bool close_after_write = false;
    bool peer_eof = false;
  };

  void run();
  void wake() noexcept;
  void drain_wakeups();
  void run_completions();
  void begin_drain();
  void accept_ready();
  void handle_event(std::uint64_t id, std::uint32_t events);
  /// All return false when they destroyed the connection.
  bool read_input(Connection& conn);
  bool process_input(Connection& conn);
  bool queue_response(Connection& conn, HttpResponse&& response);
  bool flush_output(Connection& conn);
  void update_interest(Connection& conn);
  void destroy(Connection& conn);
  [[nodiscard]] Completion make_completion(std::uint64_t id);

  Config cfg_;
  Dispatcher dispatcher_;
  EventLoopStats stats_;

  int epoll_fd_ = -1;
  int wake_fd_ = -1;
  std::thread thread_;
  std::atomic<bool> stopping_{false};
  bool draining_ = false;  ///< loop-thread flag: begin_drain already ran

  std::uint64_t next_id_ = 3;  ///< 1 = wakeup tag, 2 = listen tag
  std::unordered_map<std::uint64_t, Connection> connections_;

  std::mutex completions_mutex_;
  std::vector<std::pair<std::uint64_t, HttpResponse>> completions_;
};

}  // namespace cloudwf::svc
