#include "dist/coordinator.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <stdexcept>
#include <utility>
#include <variant>

#include "svc/binproto.hpp"
#include "svc/protocol.hpp"
#include "util/json.hpp"

namespace cloudwf::dist {

std::optional<std::vector<exp::SweepRow>> HttpShardTransport::execute(
    const exp::ShardSpec& shard) {
  if (!client_.connected() &&
      !client_.connect(options_.host, options_.port))
    return std::nullopt;

  std::vector<std::pair<std::string, std::string>> headers;
  if (!options_.auth_token.empty())
    headers.emplace_back("X-Auth-Token", options_.auth_token);

  std::optional<svc::HttpResponse> response;
  if (options_.binary) {
    response = client_.request("POST", "/v1/shard",
                               svc::encode_frame(shard), headers,
                               svc::kBinaryContentType);
  } else {
    response = client_.request("POST", "/v1/shard",
                               svc::shard_request_body(shard), headers);
  }
  if (!response || response->status != 200) return std::nullopt;

  try {
    if (options_.binary) {
      svc::BinFrame frame = svc::decode_frame(response->body);
      auto* decoded = std::get_if<svc::BinShardResponse>(&frame);
      if (decoded == nullptr || decoded->shard_id != shard.shard_id)
        return std::nullopt;
      return std::move(decoded->rows);
    }
    const svc::ShardResult result =
        svc::decode_shard_result(util::Json::parse(response->body));
    if (result.shard_id != shard.shard_id) return std::nullopt;
    return result.rows;
  } catch (const std::exception&) {
    return std::nullopt;  // undecodable answer == lost worker
  }
}

SweepOutcome run_distributed(
    const exp::SweepGridSpec& grid,
    const std::vector<std::shared_ptr<ShardTransport>>& workers,
    const CoordinatorOptions& options) {
  if (workers.empty())
    throw std::invalid_argument("run_distributed needs at least one worker");
  const std::size_t shard_count = std::max<std::size_t>(
      1, workers.size() * std::max<std::size_t>(1, options.shards_per_worker));
  std::vector<exp::ShardSpec> shards = exp::partition_grid(grid, shard_count);
  ShardTracker tracker(shards, options.tracker);

  // One driver thread per worker: lease, execute, report, repeat. A failed
  // execute fails the lease so the tracker re-issues immediately instead of
  // waiting out the lease clock.
  std::vector<std::thread> drivers;
  drivers.reserve(workers.size());
  for (const std::shared_ptr<ShardTransport>& worker : workers) {
    drivers.emplace_back([&tracker, worker] {
      for (;;) {
        const Acquired lease = tracker.acquire_blocking();
        if (lease.status == AcquireStatus::done) return;
        std::optional<std::vector<exp::SweepRow>> rows =
            worker->execute(lease.shard);
        if (rows)
          tracker.complete(lease.shard.shard_id, std::move(*rows));
        else
          tracker.fail(lease.shard.shard_id);
      }
    });
  }
  for (std::thread& driver : drivers) driver.join();

  if (tracker.dead())
    throw std::runtime_error(
        "distributed sweep failed: a shard exhausted its attempts (every "
        "worker that tried it was lost)");

  SweepOutcome outcome;
  outcome.rows = exp::merge_shards(shards, tracker.results());
  outcome.stats = tracker.stats();
  outcome.shard_count = shards.size();
  return outcome;
}

// --- pull-mode coordinator ---------------------------------------------

CoordinatorServer::CoordinatorServer(std::vector<exp::ShardSpec> shards,
                                     Config config)
    : shards_(std::move(shards)),
      tracker_(shards_, config.tracker),
      config_(config) {}

CoordinatorServer::~CoordinatorServer() { stop(); }

void CoordinatorServer::start() {
  if (started_) throw std::logic_error("CoordinatorServer::start called twice");

  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0)
    throw std::runtime_error("socket(): " + std::string(std::strerror(errno)));
  const int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(config_.port);
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0 ||
      ::listen(fd, 64) != 0) {
    const std::string err = std::strerror(errno);
    ::close(fd);
    throw std::runtime_error("coordinator bind/listen: " + err);
  }
  socklen_t len = sizeof addr;
  ::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len);
  port_ = ntohs(addr.sin_port);
  listen_fd_ = fd;
  started_ = true;
  acceptor_ = std::thread([this] { accept_loop(); });
}

void CoordinatorServer::accept_loop() {
  // Blocking accept; shutdown() on the listen fd from stop() wakes it with
  // an error. Workers are few (a fleet, not the public internet), so one
  // thread per connection is the simplest correct shape.
  for (;;) {
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (stopping_.load(std::memory_order_acquire)) return;
      if (errno == EINTR || errno == ECONNABORTED) continue;
      return;
    }
    const std::lock_guard<std::mutex> lock(conns_mutex_);
    conns_.emplace_back([this, fd] { serve_connection(fd); });
  }
}

void CoordinatorServer::serve_connection(int fd) {
  // Idle connections close after a short receive timeout instead of parking
  // this thread forever (stop() joins every connection thread; a silent
  // peer must not be able to wedge it). Workers reconnect transparently —
  // HttpClient retries once on a dropped keep-alive connection.
  timeval timeout{};
  timeout.tv_sec = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof timeout);

  std::string carry;
  for (;;) {
    const svc::ReadResult read = svc::read_http_request(fd, carry);
    if (read.status != svc::ReadStatus::ok) break;
    svc::HttpResponse response = handle(read.request);
    response.close_connection =
        response.close_connection || !read.request.keep_alive();
    if (!svc::write_all(fd, svc::serialize_response(response))) break;
    if (response.close_connection) break;
  }
  ::close(fd);
}

svc::HttpResponse CoordinatorServer::handle(const svc::HttpRequest& request) {
  svc::HttpResponse response;

  if (request.target == "/v1/shard/lease") {
    if (request.method != "POST") {
      response.status = 405;
      response.body = svc::error_body("use POST for /v1/shard/lease");
      return response;
    }
    const Acquired lease = tracker_.acquire();
    switch (lease.status) {
      case AcquireStatus::granted:
        response.body = svc::shard_request_body(lease.shard);
        return response;
      case AcquireStatus::wait:
        response.status = 503;
        response.body = svc::error_body("no shard available — retry");
        return response;
      case AcquireStatus::done:
        response.status = 204;  // sweep finished: the worker may exit
        return response;
    }
  }

  if (request.target == "/v1/shard/result") {
    if (request.method != "POST") {
      response.status = 405;
      response.body = svc::error_body("use POST for /v1/shard/result");
      return response;
    }
    try {
      std::uint64_t shard_id = 0;
      std::vector<exp::SweepRow> rows;
      if (request.header("content-type") == svc::kBinaryContentType) {
        svc::BinFrame frame = svc::decode_frame(request.body);
        auto* decoded = std::get_if<svc::BinShardResponse>(&frame);
        if (decoded == nullptr)
          throw svc::BadRequest("expected a shard_response frame");
        shard_id = decoded->shard_id;
        rows = std::move(decoded->rows);
      } else {
        svc::ShardResult result =
            svc::decode_shard_result(util::Json::parse(request.body));
        shard_id = result.shard_id;
        rows = std::move(result.rows);
      }
      const bool accepted = tracker_.complete(shard_id, std::move(rows));
      util::Json body = util::Json::object();
      body["accepted"] = accepted;
      if (!accepted) body["reason"] = "duplicate or unknown shard";
      response.body = body.dump();
      return response;
    } catch (const std::exception& e) {
      response.status = 400;
      response.body = svc::error_body(e.what());
      return response;
    }
  }

  response.status = 404;
  response.body = svc::error_body("unknown endpoint '" + request.target +
                                  "' (/v1/shard/lease, /v1/shard/result)");
  return response;
}

SweepOutcome CoordinatorServer::finish() {
  tracker_.wait_finished();
  const bool was_dead = tracker_.dead();
  stop();
  if (was_dead)
    throw std::runtime_error(
        "distributed sweep failed: a shard exhausted its attempts");

  SweepOutcome outcome;
  outcome.rows = exp::merge_shards(shards_, tracker_.results());
  outcome.stats = tracker_.stats();
  outcome.shard_count = shards_.size();
  return outcome;
}

void CoordinatorServer::stop() {
  if (!started_ || stopped_) return;
  stopped_ = true;
  stopping_.store(true, std::memory_order_release);
  ::shutdown(listen_fd_, SHUT_RDWR);
  if (acceptor_.joinable()) acceptor_.join();
  ::close(listen_fd_);
  listen_fd_ = -1;
  std::vector<std::thread> conns;
  {
    const std::lock_guard<std::mutex> lock(conns_mutex_);
    conns.swap(conns_);
  }
  for (std::thread& conn : conns)
    if (conn.joinable()) conn.join();
}

}  // namespace cloudwf::dist
