// fabric: dist::run_distributed with two binary HttpShardTransports against
// one in-process svc::Server (1 event loop, 2 compute workers) over
// {epigenomics, cybershake, ligo, sipht}:300 x {pareto, worst-case} in 16
// shards per sweep. It runs the same run_shard compute as the sweeps, but
// through partition, lease, /v1/shard transport and merge — which separates
// fabric overhead from compute.
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "dist/coordinator.hpp"
#include "exp/parallel.hpp"
#include "exp/sweep_grid.hpp"
#include "scheduling/factory.hpp"
#include "svc/server.hpp"
#include "workloads.hpp"

namespace cloudwf_bench {

namespace {

namespace exp = cloudwf::exp;
namespace dist = cloudwf::dist;

constexpr std::size_t kTransports = 2;
constexpr std::size_t kShards = 16;
constexpr std::uint64_t kSeedsPerSweep = 4;
constexpr std::uint64_t kWarmupOffset = std::uint64_t{1} << 32;
constexpr std::uint64_t kTraceOffset = std::uint64_t{1} << 33;

exp::SweepGridSpec sweep_grid(std::uint64_t first_seed, std::uint64_t seeds) {
  exp::SweepGridSpec grid;
  grid.workflows = {"epigenomics:300", "cybershake:300", "ligo:300",
                    "sipht:300"};
  grid.scenarios = {cloudwf::workload::ScenarioKind::pareto,
                    cloudwf::workload::ScenarioKind::worst_case};
  grid.strategies = cloudwf::scheduling::paper_strategy_labels();
  grid.seed_begin = first_seed;
  grid.seed_end = first_seed + seeds - 1;
  return grid;
}

/// Times each shard's round trip through the wrapped transport.
class TimedTransport : public dist::ShardTransport {
 public:
  TimedTransport(std::shared_ptr<dist::ShardTransport> inner, Spans& spans)
      : inner_(std::move(inner)), spans_(spans) {}

  std::optional<std::vector<exp::SweepRow>> execute(
      const exp::ShardSpec& shard) override {
    const auto s = spans_.scope("dist.shard_rtt", shard.shard_id);
    const Clock::time_point start = Clock::now();
    auto rows = inner_->execute(shard);
    const double ms = ms_between(start, Clock::now());
    const std::lock_guard<std::mutex> lock(mutex_);
    rtt_ms_.push_back(ms);
    return rows;
  }

  [[nodiscard]] std::vector<double> rtt_ms() const {
    const std::lock_guard<std::mutex> lock(mutex_);
    return rtt_ms_;
  }

 private:
  std::shared_ptr<dist::ShardTransport> inner_;
  Spans& spans_;
  mutable std::mutex mutex_;
  std::vector<double> rtt_ms_;  ///< guarded by mutex_
};

/// A server and the transports that reach it.
struct Fabric {
  std::unique_ptr<cloudwf::svc::Server> server;
  std::vector<std::shared_ptr<dist::ShardTransport>> workers;
};

Fabric start_fabric(const cloudwf::cloud::Platform& platform) {
  Fabric fabric;
  fabric.server =
      std::make_unique<cloudwf::svc::Server>(server_config(), platform);
  fabric.server->start();
  for (std::size_t w = 0; w < kTransports; ++w) {
    dist::HttpShardTransport::Options options;
    options.port = fabric.server->port();
    options.binary = true;
    fabric.workers.push_back(
        std::make_shared<dist::HttpShardTransport>(options));
  }
  return fabric;
}

dist::CoordinatorOptions coordinator_options() {
  dist::CoordinatorOptions options;
  options.shards_per_worker = kShards / kTransports;
  return options;
}

}  // namespace

Report run_fabric(const RunConfig& config) {
  Report report;
  const cloudwf::cloud::Platform platform = cloudwf::cloud::Platform::ec2();
  const std::uint64_t base = seed_base(config.seed);

  // Set-up: server start, transports, and a one-seed warm-up sweep that
  // opens both connections. Repeated; the last fabric stays up. Probes
  // cover every core: a sweep runs on two workers, the event loop and two
  // coordinator threads.
  ScaledTimes setups(kThreadBudget);
  Fabric fabric;
  for (int rep = 0; rep < (config.smoke ? 1 : 3); ++rep) {
    fabric = Fabric{};
    const Clock::time_point start = Clock::now();
    fabric = start_fabric(platform);
    const exp::SweepGridSpec warm = sweep_grid(base + kWarmupOffset, 1);
    if (dist::run_distributed(warm, fabric.workers, coordinator_options())
            .rows.size() != warm.cell_count())
      report.fail("warm-up sweep returned a short table");
    setups.add(ms_between(start, Clock::now()));
  }

  ScaledTimes sweep_ms(kThreadBudget);
  std::vector<double> sweep_cells;
  std::vector<std::string> digests;
  std::uint64_t cells = 0;
  std::uint64_t reissues = 0;
  std::uint64_t duplicates = 0;
  const double window = config.smoke ? config.seconds / 100 : config.seconds;
  const Clock::time_point window_start = Clock::now();
  for (std::uint64_t k = 0; k == 0 || seconds_since(window_start) < window;
       ++k) {
    const exp::SweepGridSpec grid =
        sweep_grid(base + k * kSeedsPerSweep, kSeedsPerSweep);
    const Clock::time_point start = Clock::now();
    const dist::SweepOutcome outcome =
        dist::run_distributed(grid, fabric.workers, coordinator_options());
    sweep_ms.add(ms_between(start, Clock::now()));
    sweep_cells.push_back(static_cast<double>(grid.cell_count()));
    cells += grid.cell_count();
    reissues += outcome.stats.reissues_expired +
                outcome.stats.reissues_speculative;
    duplicates += outcome.stats.duplicates_discarded;
    if (outcome.rows.size() != grid.cell_count()) {
      report.fail("sweep " + std::to_string(k) + " returned a short table",
                  grid.cell_count());
      digests.emplace_back();
      continue;
    }
    digests.push_back(table_digest(grid, outcome.rows));
    if (k == 0) check_golden(report, config, "fabric", digests.back());
  }
  fabric = Fabric{};
  report.attempted = cells;

  report.end_to_end("ops_per_s", median_rate(sweep_cells, sweep_ms.scaled_ms()),
                    "ops/s");
  report.end_to_end("latency_p50_ms", median(sweep_ms.scaled_ms()), "ms");
  report.end_to_end("setup_s", median(setups.scaled_ms()) / 1000, "s");

  // After the window: every distributed sweep must equal the serial one.
  exp::ParallelConfig parallel;
  parallel.threads = kThreadBudget;
  const std::vector<std::string> serial = exp::parallel_map(
      digests.size(), parallel, [&](std::size_t k) {
        const exp::SweepGridSpec grid =
            sweep_grid(base + k * kSeedsPerSweep, kSeedsPerSweep);
        return table_digest(grid, exp::run_grid_serial(grid, platform));
      });
  for (std::size_t k = 0; k < digests.size(); ++k)
    if (digests[k] != serial[k])
      report.fail("distributed sweep " + std::to_string(k) +
                      " differs from run_grid_serial",
                  sweep_grid(0, kSeedsPerSweep).cell_count());

  if (!config.trace) return report;

  // Traced sweep on fresh seeds (the window's shards are cached), then the
  // fabric's local steps timed on identical inputs.
  LayerValues layers;
  Spans traced(true);
  fabric = start_fabric(platform);
  std::vector<std::shared_ptr<dist::ShardTransport>> timed;
  std::vector<std::shared_ptr<TimedTransport>> timers;
  for (const auto& worker : fabric.workers) {
    timers.push_back(std::make_shared<TimedTransport>(worker, traced));
    timed.push_back(timers.back());
  }
  const exp::SweepGridSpec grid =
      sweep_grid(base + kTraceOffset, kSeedsPerSweep);
  Clock::time_point start = Clock::now();
  const dist::SweepOutcome outcome =
      dist::run_distributed(grid, timed, coordinator_options());
  const double traced_ms = ms_between(start, Clock::now());
  fabric = Fabric{};

  const std::vector<exp::ShardSpec> shards = [&] {
    const auto s = traced.scope("exp.partition");
    return exp::partition_grid(grid, kShards);
  }();
  std::vector<std::vector<exp::SweepRow>> shard_rows;
  double run_shard_ms = 0;
  for (const exp::ShardSpec& shard : shards) {
    const auto s = traced.scope("exp.run_shard", shard.shard_id);
    start = Clock::now();
    shard_rows.push_back(exp::run_shard(shard, platform));
    run_shard_ms += ms_between(start, Clock::now());
  }
  const std::vector<exp::SweepRow> merged = [&] {
    const auto s = traced.scope("exp.merge");
    return exp::merge_shards(shards, shard_rows);
  }();
  if (merged != outcome.rows)
    report.fail("traced distributed sweep differs from its shards run locally",
                grid.cell_count());

  std::vector<double> rtts;
  for (const auto& timer : timers)
    for (const double ms : timer->rtt_ms()) rtts.push_back(ms);
  double rtt_total = 0;
  for (const double ms : rtts) rtt_total += ms;
  layers["dist.shard_rtt_ms_p50"] = median(rtts);
  layers["dist.transport_ms"] = rtt_total - run_shard_ms;
  layers["dist.reissues"] = static_cast<double>(reissues);
  layers["dist.duplicates"] = static_cast<double>(duplicates);
  layers["trace.overhead"] = traced_ms / median(sweep_ms.raw_ms());
  layers["bench.host_factor"] = sweep_ms.host_factor();
  report_trace(report, config, traced, std::move(layers));
  return report;
}

}  // namespace cloudwf_bench
