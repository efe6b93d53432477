#include "dist/coordinator.hpp"

#include <netinet/in.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <stdexcept>
#include <thread>
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

  in_addr loopback{};
  loopback.s_addr = htonl(INADDR_LOOPBACK);
  const svc::Listener listener = svc::listen_tcp(loopback, config_.port);
  listen_fd_ = listener.fd;
  port_ = listener.port;
  started_ = true;

  // Both routes are a tracker call and a small encode, so the loop answers
  // every request inline and never defers to a completion.
  svc::EventLoop::Config loop_config;
  loop_config.listen_fd = listen_fd_;
  loop_config.max_connections = kMaxConnections;
  loop_config.counters.connections_active = &connections_active_;
  loop_ = std::make_unique<svc::EventLoop>(
      loop_config, [this](svc::HttpRequest&& request, svc::HttpResponse& sync,
                          svc::EventLoop::Completion) {
        sync = handle(request);
        return true;
      });
  loop_->start();
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
  // Workers learn that the sweep is over from the 204 on their next lease.
  // Give the ones still connected a moment to ask and hang up before the
  // drain closes their connections.
  const auto deadline = std::chrono::steady_clock::now() + kFinishGrace;
  while (connections_active_.load(std::memory_order_relaxed) > 0 &&
         std::chrono::steady_clock::now() < deadline)
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
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
  if (loop_) {
    loop_->request_stop();
    loop_->join();
    loop_.reset();
  }
  ::close(listen_fd_);
  listen_fd_ = -1;
}

}  // namespace cloudwf::dist
