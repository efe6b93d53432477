// End-to-end fabric tests: push-mode run_distributed with injected
// failures and stragglers, pull-mode CoordinatorServer driven by real
// run_worker loops over loopback sockets (including a worker killed
// mid-shard), and in every case the certification the subsystem exists
// for — the merged rows are bit-identical to the serial sweep.
#include "dist/coordinator.hpp"

#include <gtest/gtest.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <fstream>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "cloud/platform.hpp"
#include "dist/worker.hpp"
#include "exp/sweep_grid.hpp"
#include "svc/http.hpp"
#include "workload/scenario.hpp"

namespace cloudwf::dist {
namespace {

using namespace std::chrono_literals;

exp::SweepGridSpec test_grid() {
  exp::SweepGridSpec grid;
  grid.workflows = {"montage", "cstem"};
  grid.scenarios = {workload::ScenarioKind::pareto,
                    workload::ScenarioKind::worst_case};
  grid.strategies = {"AllPar1LnS", "StartParExceed-m"};
  grid.seed_begin = 0;
  grid.seed_end = 1;
  return grid;  // 16 cells
}

/// Healthy in-process worker: the exact serial shard path.
class LocalTransport : public ShardTransport {
 public:
  explicit LocalTransport(const cloud::Platform& platform)
      : platform_(platform) {}
  std::optional<std::vector<exp::SweepRow>> execute(
      const exp::ShardSpec& shard) override {
    executed_ += 1;
    return exp::run_shard(shard, platform_);
  }
  [[nodiscard]] int executed() const { return executed_.load(); }

 private:
  const cloud::Platform& platform_;
  std::atomic<int> executed_{0};
};

/// Dies for the first `failures` shards (returns nullopt, as a dead HTTP
/// peer would), then recovers.
class FlakyTransport : public LocalTransport {
 public:
  FlakyTransport(const cloud::Platform& platform, int failures)
      : LocalTransport(platform), failures_left_(failures) {}
  std::optional<std::vector<exp::SweepRow>> execute(
      const exp::ShardSpec& shard) override {
    if (failures_left_.fetch_sub(1) > 0) return std::nullopt;
    return LocalTransport::execute(shard);
  }

 private:
  std::atomic<int> failures_left_;
};

/// Always-correct but slow: holds every lease past the speculation window.
/// Raises `started` on entry so a test can hold its fast peer back until
/// the straggler provably owns a lease.
class SlowTransport : public LocalTransport {
 public:
  SlowTransport(const cloud::Platform& platform,
                std::chrono::milliseconds delay, std::atomic<bool>* started)
      : LocalTransport(platform), delay_(delay), started_(started) {}
  std::optional<std::vector<exp::SweepRow>> execute(
      const exp::ShardSpec& shard) override {
    started_->store(true);
    auto rows = LocalTransport::execute(shard);
    std::this_thread::sleep_for(delay_);
    return rows;
  }

 private:
  std::chrono::milliseconds delay_;
  std::atomic<bool>* started_;
};

/// Fast worker that politely waits until the straggler holds a lease —
/// without this the fast worker can finish the whole sweep before the slow
/// one ever acquires, and the test would assert on a race.
class GatedTransport : public LocalTransport {
 public:
  GatedTransport(const cloud::Platform& platform, std::atomic<bool>* gate)
      : LocalTransport(platform), gate_(gate) {}
  std::optional<std::vector<exp::SweepRow>> execute(
      const exp::ShardSpec& shard) override {
    const auto deadline = std::chrono::steady_clock::now() + 2s;
    while (!gate_->load() && std::chrono::steady_clock::now() < deadline)
      std::this_thread::sleep_for(1ms);
    return LocalTransport::execute(shard);
  }

 private:
  std::atomic<bool>* gate_;
};

/// A worker that is never heard from again after taking the lease.
class BlackHoleTransport : public ShardTransport {
 public:
  std::optional<std::vector<exp::SweepRow>> execute(
      const exp::ShardSpec&) override {
    return std::nullopt;
  }
};

TEST(RunDistributed, TwoWorkersMatchSerialBitwise) {
  const cloud::Platform platform = cloud::Platform::ec2();
  const exp::SweepGridSpec grid = test_grid();
  const std::vector<exp::SweepRow> serial =
      exp::run_grid_serial(grid, platform);

  std::vector<std::shared_ptr<ShardTransport>> workers = {
      std::make_shared<LocalTransport>(platform),
      std::make_shared<LocalTransport>(platform)};
  CoordinatorOptions options;
  options.shards_per_worker = 3;
  const SweepOutcome outcome = run_distributed(grid, workers, options);

  EXPECT_EQ(outcome.rows, serial);
  EXPECT_EQ(outcome.shard_count, 6u);
  EXPECT_EQ(outcome.stats.completions, 6u);
  EXPECT_EQ(outcome.stats.failures_reported, 0u);
  // Which worker ran how many shards is a scheduling race (a single-core
  // host can legally drain the queue through one transport); what is not
  // negotiable is that exactly the six shards ran, with no double work.
  EXPECT_EQ(static_cast<LocalTransport*>(workers[0].get())->executed() +
                static_cast<LocalTransport*>(workers[1].get())->executed(),
            6);
}

TEST(RunDistributed, SingleWorkerDegeneratesToSerial) {
  const cloud::Platform platform = cloud::Platform::ec2();
  const exp::SweepGridSpec grid = test_grid();
  std::vector<std::shared_ptr<ShardTransport>> workers = {
      std::make_shared<LocalTransport>(platform)};
  const SweepOutcome outcome = run_distributed(grid, workers);
  EXPECT_EQ(outcome.rows, exp::run_grid_serial(grid, platform));
}

TEST(RunDistributed, ReissuesShardsLostToAFailingWorker) {
  const cloud::Platform platform = cloud::Platform::ec2();
  const exp::SweepGridSpec grid = test_grid();
  const std::vector<exp::SweepRow> serial =
      exp::run_grid_serial(grid, platform);

  // Worker 0 drops its first three shards on the floor; the tracker must
  // requeue them (fail() path — no lease clock involved) and the sweep must
  // still merge byte-identically.
  std::vector<std::shared_ptr<ShardTransport>> workers = {
      std::make_shared<FlakyTransport>(platform, 3),
      std::make_shared<LocalTransport>(platform)};
  CoordinatorOptions options;
  options.shards_per_worker = 4;
  options.tracker.max_attempts = 8;  // headroom: failures burn attempts
  const SweepOutcome outcome = run_distributed(grid, workers, options);

  EXPECT_EQ(outcome.rows, serial);
  EXPECT_EQ(outcome.stats.completions, 8u);
  EXPECT_EQ(outcome.stats.failures_reported, 3u);
  EXPECT_GE(outcome.stats.leases_granted, 11u);  // 8 completed + 3 re-run
}

TEST(RunDistributed, SpeculatesAroundAStragglerAndDiscardsTheLoser) {
  const cloud::Platform platform = cloud::Platform::ec2();
  const exp::SweepGridSpec grid = test_grid();
  const std::vector<exp::SweepRow> serial =
      exp::run_grid_serial(grid, platform);

  // The slow worker holds each lease ~400ms; the lease window is 300ms, so
  // the fast worker gets a copy (speculative after 150ms, or expiry-driven
  // after 300ms) and wins. The straggler's late answer must be discarded —
  // and because both answers are bit-identical, either winner merges to the
  // serial rows.
  std::atomic<bool> straggler_started{false};
  std::vector<std::shared_ptr<ShardTransport>> workers = {
      std::make_shared<SlowTransport>(platform, 400ms, &straggler_started),
      std::make_shared<GatedTransport>(platform, &straggler_started)};
  CoordinatorOptions options;
  options.shards_per_worker = 1;  // exactly 2 shards: one each
  options.tracker.lease_timeout = 300ms;
  options.tracker.speculative = true;
  const SweepOutcome outcome = run_distributed(grid, workers, options);

  EXPECT_EQ(outcome.rows, serial);
  EXPECT_EQ(outcome.stats.completions, 2u);
  EXPECT_GE(outcome.stats.reissues_speculative +
                outcome.stats.reissues_expired,
            1u);
  EXPECT_GE(outcome.stats.duplicates_discarded, 1u);
}

TEST(RunDistributed, ThrowsWhenEveryWorkerDies) {
  const cloud::Platform platform = cloud::Platform::ec2();
  const exp::SweepGridSpec grid = test_grid();
  std::vector<std::shared_ptr<ShardTransport>> workers = {
      std::make_shared<BlackHoleTransport>()};
  CoordinatorOptions options;
  options.tracker.max_attempts = 2;
  options.tracker.speculative = false;
  EXPECT_THROW((void)run_distributed(grid, workers, options),
               std::runtime_error);

  workers.clear();
  EXPECT_THROW((void)run_distributed(grid, workers, options),
               std::invalid_argument);
}

TEST(PullMode, WorkersOverLoopbackMatchSerialBitwise) {
  const cloud::Platform platform = cloud::Platform::ec2();
  const exp::SweepGridSpec grid = test_grid();
  const std::vector<exp::SweepRow> serial =
      exp::run_grid_serial(grid, platform);

  CoordinatorServer::Config config;
  config.port = 0;
  CoordinatorServer coordinator(exp::partition_grid(grid, 4), config);
  coordinator.start();

  WorkerOptions worker_options;
  worker_options.port = coordinator.port();
  worker_options.poll_interval = 10ms;
  WorkerReport reports[2];
  std::thread workers[2];
  for (std::size_t i = 0; i < 2; ++i)
    workers[i] = std::thread([&, i] {
      reports[i] = run_worker(worker_options, platform);
    });
  const SweepOutcome outcome = coordinator.finish();
  for (std::thread& worker : workers) worker.join();

  EXPECT_EQ(outcome.rows, serial);
  EXPECT_EQ(outcome.shard_count, 4u);
  EXPECT_EQ(reports[0].shards_completed + reports[1].shards_completed, 4u);
  EXPECT_TRUE(reports[0].finished);
  EXPECT_TRUE(reports[1].finished);
}

TEST(PullMode, SurvivesWorkerKilledMidShardAndStraggler) {
  const cloud::Platform platform = cloud::Platform::ec2();
  const exp::SweepGridSpec grid = test_grid();
  const std::vector<exp::SweepRow> serial =
      exp::run_grid_serial(grid, platform);

  CoordinatorServer::Config config;
  config.port = 0;
  config.tracker.lease_timeout = 250ms;
  CoordinatorServer coordinator(exp::partition_grid(grid, 4), config);
  coordinator.start();

  // The "killed" worker: leases a shard over the real wire protocol and
  // vanishes without reporting. Its lease must expire and the shard be
  // re-issued to the survivors.
  {
    svc::HttpClient victim;
    ASSERT_TRUE(victim.connect("127.0.0.1", coordinator.port()));
    const auto lease = victim.request("POST", "/v1/shard/lease");
    ASSERT_TRUE(lease.has_value());
    ASSERT_EQ(lease->status, 200);
    victim.disconnect();  // SIGKILL equivalent: the lease is now orphaned
  }

  // One straggler (sleeps before reporting each shard — its answers may
  // lose the race and be discarded as duplicates) and one healthy worker.
  WorkerOptions straggler_options;
  straggler_options.port = coordinator.port();
  straggler_options.poll_interval = 10ms;
  straggler_options.delay_per_shard = 300ms;
  WorkerOptions healthy_options;
  healthy_options.port = coordinator.port();
  healthy_options.poll_interval = 10ms;

  WorkerReport straggler_report, healthy_report;
  std::thread straggler([&] {
    straggler_report = run_worker(straggler_options, platform);
  });
  std::thread healthy(
      [&] { healthy_report = run_worker(healthy_options, platform); });
  const SweepOutcome outcome = coordinator.finish();
  straggler.join();
  healthy.join();

  // Byte-identical despite the orphaned lease and the duplicate answers.
  EXPECT_EQ(outcome.rows, serial);
  EXPECT_EQ(outcome.stats.completions, 4u);
  // The victim's shard came back: at least one re-issue (expired lease) or
  // speculative copy happened.
  EXPECT_GE(outcome.stats.reissues_expired +
                outcome.stats.reissues_speculative,
            1u);
  // Accepted + duplicate reports cover all four shards at least once.
  EXPECT_GE(straggler_report.shards_completed +
                straggler_report.shards_duplicate +
                healthy_report.shards_completed +
                healthy_report.shards_duplicate,
            4u);
}

TEST(PullMode, LeaseEndpointSpeaksTheProtocol) {
  const exp::SweepGridSpec grid = test_grid();
  CoordinatorServer::Config config;
  CoordinatorServer coordinator(exp::partition_grid(grid, 2), config);
  coordinator.start();

  svc::HttpClient client;
  ASSERT_TRUE(client.connect("127.0.0.1", coordinator.port()));

  auto response = client.request("GET", "/v1/shard/lease");
  ASSERT_TRUE(response.has_value());
  EXPECT_EQ(response->status, 405);

  response = client.request("POST", "/v1/nope");
  ASSERT_TRUE(response.has_value());
  EXPECT_EQ(response->status, 404);

  response = client.request("POST", "/v1/shard/result", "not json");
  ASSERT_TRUE(response.has_value());
  EXPECT_EQ(response->status, 400);

  coordinator.stop();
}

int connect_loopback(std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

// The coordinator holds at most kMaxConnections connections; the next one
// is answered 503 and closed instead of costing it anything.
TEST(PullMode, ConnectionBeyondTheCapIsAnswered503) {
  CoordinatorServer coordinator(exp::partition_grid(test_grid(), 2), {});
  coordinator.start();

  std::vector<int> held;
  for (std::size_t i = 0; i < CoordinatorServer::kMaxConnections; ++i) {
    held.push_back(connect_loopback(coordinator.port()));
    ASSERT_GE(held.back(), 0);
  }
  const int extra = connect_loopback(coordinator.port());
  ASSERT_GE(extra, 0);
  std::string answer;
  char chunk[512];
  for (ssize_t n; (n = ::recv(extra, chunk, sizeof chunk, 0)) > 0;)
    answer.append(chunk, static_cast<std::size_t>(n));
  ::close(extra);
  EXPECT_EQ(answer.rfind("HTTP/1.1 503 ", 0), 0u) << answer;
  EXPECT_NE(answer.find("connection limit reached"), std::string::npos);

  for (const int fd : held) ::close(fd);
  coordinator.stop();
}

std::size_t mapping_count() {
  std::ifstream maps("/proc/self/maps");
  std::size_t lines = 0;
  for (std::string line; std::getline(maps, line);) ++lines;
  return lines;
}

// A worker that reconnects must not cost the coordinator anything that
// outlives the connection (a thread per connection left one never-joined
// 8 MiB stack and guard page behind per reconnect).
TEST(PullMode, ReconnectsDoNotGrowTheProcess) {
  CoordinatorServer coordinator(exp::partition_grid(test_grid(), 2), {});
  coordinator.start();

  const std::size_t before = mapping_count();
  for (int i = 0; i < 50; ++i) {
    svc::HttpClient client;
    ASSERT_TRUE(client.connect("127.0.0.1", coordinator.port()));
    const auto lease = client.request("POST", "/v1/shard/lease");
    ASSERT_TRUE(lease.has_value());
    client.disconnect();
  }
  EXPECT_LE(mapping_count(), before + 10);

  coordinator.stop();
}

}  // namespace
}  // namespace cloudwf::dist
