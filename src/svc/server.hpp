// The long-running simulation service behind `cloudwf serve`.
//
// The network path is event-driven: `event_loop_threads` EventLoops share
// one nonblocking listen socket (EPOLLEXCLUSIVE) and run every accept, read
// and write without ever blocking a thread on a single connection. The
// server plugs in as the loops' dispatcher: GET /health, GET /stats and
// /v1/tenants are answered inline on the loop thread, while POST
// /v1/evaluate and /v1/rank are decoded (JSON, or the compact binary
// protocol when Content-Type is application/x-cloudwf-bin),
// admission-checked and enqueued on the Batcher, whose batches execute on
// a util::ThreadPool of `workers` compute threads. The batch worker hands
// the finished response back to the owning loop through the request's
// on_ready hook — no thread ever parks on a future.
//
// Because every handler body is a pure function of the request (fixed
// platform, seeded RNG), identical compute requests can be answered from a
// bounded response cache without running a batch; `response_cache_entries`
// sizes it (0 disables). Batch admission is tenant-weighted
// deficit-round-robin — see batcher.hpp.
//
// Shutdown (`stop()`, wired to SIGTERM in the CLI) is a graceful drain:
// the loops stop accepting, idle connections close, in-flight requests are
// answered with `Connection: close`, queued batches run to completion, and
// only then do the compute workers exit. A count-only TraceRecorder spans
// the server's lifetime as the process-global recorder; /stats surfaces its
// phases and counters live, along with per-loop epoll statistics.
#pragma once

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <limits>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "cloud/platform.hpp"
#include "obs/trace.hpp"
#include "svc/batcher.hpp"
#include "svc/event_loop.hpp"
#include "svc/http.hpp"
#include "tenant/tenant.hpp"
#include "util/thread_pool.hpp"

namespace cloudwf::svc {

/// The response cache's byte budget per configured entry. A single-cell
/// /v1/evaluate answer and its key take about 430 bytes, so the default 8192
/// entries hold 4 MiB; larger answers (a ranking of 19 strategies, a
/// many-seed evaluation, a shard's rows) fill the cache in bytes first.
inline constexpr std::size_t kResponseCacheBytesPerEntry = 512;

struct ServerConfig {
  std::uint16_t port = 8080;  ///< 0 = ephemeral (tests/benches); see port()
  std::size_t workers = 4;    ///< compute pool size
  std::size_t max_queue = 64; ///< admission bound — beyond it, 429
  std::chrono::milliseconds request_timeout{5000};  ///< per-request deadline
  std::size_t max_connections = 128;  ///< concurrent connections; beyond, 503
  std::size_t event_loop_threads = 0;  ///< 0 = auto (cores/4, clamped to 1..4)
  /// Response cache entries; 0 disables the cache. The cache also holds at
  /// most kResponseCacheBytesPerEntry times this many bytes of keys and
  /// bodies.
  std::size_t response_cache_entries = 8192;
  /// IPv4 address to bind. Anything but loopback requires auth_token —
  /// start() refuses to expose an unauthenticated server to a network.
  std::string bind_address = "127.0.0.1";
  /// Shared secret. When non-empty, every request except GET /health must
  /// carry it in X-Auth-Token (compared in constant time) or is answered
  /// 401. /health stays open for load-balancer liveness probes.
  std::string auth_token;
};

class Server {
 public:
  explicit Server(ServerConfig config,
                  cloud::Platform platform = cloud::Platform::ec2());
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Binds, listens and starts the event loops. Throws std::runtime_error
  /// when the port cannot be bound. Returns once the socket is live — a
  /// client may connect the moment this returns.
  void start();

  /// Graceful drain: stop accepting, finish in-flight requests, run every
  /// queued batch, then stop the workers. Idempotent, thread-safe.
  void stop();

  /// The bound port (resolves config.port == 0 to the kernel's choice).
  [[nodiscard]] std::uint16_t port() const noexcept { return port_; }

  [[nodiscard]] const ServiceCounters& counters() const noexcept {
    return counters_;
  }
  [[nodiscard]] const obs::TraceRecorder& recorder() const noexcept {
    return recorder_;
  }
  [[nodiscard]] bool running() const noexcept {
    return started_ && !stopping_.load(std::memory_order_acquire);
  }
  /// Event loops actually running (resolved from config).
  [[nodiscard]] std::size_t event_loop_count() const noexcept {
    return loops_.size();
  }

 private:
  /// EventLoop dispatcher: answers inline (returns true, fills `sync`) or
  /// defers to the batcher (returns false after capturing `done`).
  bool dispatch(HttpRequest&& request, HttpResponse& sync,
                EventLoop::Completion done);
  bool handle_compute(HttpRequest&& request, QueuedRequest::Kind kind,
                      HttpResponse& sync, EventLoop::Completion done);
  [[nodiscard]] HttpResponse handle_tenants(const HttpRequest& request);
  /// Resolves the X-Tenant header: nullopt + a filled 400 response for an
  /// unregistered name, a valid id for a registered one, kInvalidTenant
  /// (anonymous, always accepted) when the header is absent. Fills `weight`
  /// with the tenant's DRR weight (1.0 for anonymous).
  [[nodiscard]] std::optional<tenant::TenantId> resolve_tenant(
      const HttpRequest& request, HttpResponse* error, double* weight);
  [[nodiscard]] std::string health_body() const;
  [[nodiscard]] std::string stats_body() const;

  ServerConfig config_;
  cloud::Platform platform_;
  ServiceCounters counters_;
  // Count-only: /stats reads counters and phase stats and nothing drains
  // events, so the workers keep no rings and build no payloads.
  obs::TraceRecorder recorder_{0};

  util::ThreadPool pool_;
  Batcher batcher_;

  int listen_fd_ = -1;
  std::uint16_t port_ = 0;
  bool started_ = false;
  std::atomic<bool> stopping_{false};
  std::mutex stop_mutex_;
  bool stopped_ = false;

  std::vector<std::unique_ptr<EventLoop>> loops_;

  /// Bounded cache of successful compute responses, keyed by the full
  /// request identity (protocol, endpoint, workflow, scenario, strategy,
  /// seeds). Sound because handler bodies are deterministic pure functions
  /// of the request. Cleared wholesale when full — the workload's key space
  /// is small, so eviction sophistication buys nothing.
  struct CachedResponse {
    std::string body;
    std::string content_type;
  };
  [[nodiscard]] std::size_t cache_byte_budget() const noexcept {
    // Saturates: --response-cache takes any size, and /stats reports int64.
    constexpr std::size_t kMaxEntries =
        static_cast<std::size_t>(std::numeric_limits<std::int64_t>::max()) /
        kResponseCacheBytesPerEntry;
    return std::min(config_.response_cache_entries, kMaxEntries) *
           kResponseCacheBytesPerEntry;
  }
  mutable std::mutex cache_mutex_;
  std::unordered_map<std::string, CachedResponse> response_cache_;
  std::size_t cache_bytes_ = 0;  ///< keys + bodies held; guarded by cache_mutex_

  /// Tenant accounts (POST /v1/tenants) and their request counters,
  /// surfaced per tenant in /stats. Guarded by tenants_mutex_: loop
  /// threads register and count concurrently.
  struct TenantUsage {
    std::uint64_t evaluate = 0;
    std::uint64_t rank = 0;
  };
  mutable std::mutex tenants_mutex_;
  tenant::TenantRegistry tenants_;
  std::vector<TenantUsage> tenant_usage_;  ///< indexed by TenantId
};

}  // namespace cloudwf::svc
