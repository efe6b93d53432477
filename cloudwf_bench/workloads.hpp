// The five cloudwf_bench workloads and what each run reports.
//
// Every workload runs in its own child process (main.cpp) and returns a
// Report: the operations it attempted and failed, the reasons for any
// failure, and its metrics. End-to-end metrics are measured with tracing
// off; per-layer metrics come from a traced replay of the same work (see
// README.md for both tables).
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "exp/sweep_grid.hpp"
#include "spans.hpp"
#include "svc/server.hpp"

namespace cloudwf_bench {

/// The seed whose canonical outputs are pinned under golden/.
inline constexpr std::uint64_t kDefaultSeed = 1;

/// Busy threads a workload may use, counting load generator, server and
/// coordinator; also the cores a multi-threaded workload's host probe and
/// its after-window verification use.
inline constexpr std::size_t kThreadBudget = 4;

struct RunConfig {
  std::uint64_t seed = kDefaultSeed;
  double seconds = 10;        ///< length of the timed window
  bool trace = false;         ///< also run the traced replay
  bool smoke = false;         ///< ~1 % of the work, every check on
  bool write_golden = false;  ///< record golden digests instead of checking
  std::string trace_out;      ///< Chrome trace path of the traced replay
};

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
  bool end_to_end = false;
};

struct Report {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> errors;
  std::vector<Metric> metrics;

  void end_to_end(const std::string& name, double value,
                  const std::string& unit) {
    metrics.push_back({name, value, unit, true});
  }
  /// Counts `ops` failed operations and records why.
  void fail(const std::string& why, std::uint64_t ops = 1) {
    failed += ops;
    errors.push_back(why);
  }
};

/// Per-layer values a workload measured directly, by metric name.
using LayerValues = std::map<std::string, double>;

/// Ends a traced run: adds the busy totals and call counts (`…_ms`,
/// `…_calls`) and service means per call (`…_us`) of the replay's spans to
/// `layers`, reports every per-layer metric of the benchmark (0 where the
/// workload does not reach the layer) and writes the Chrome trace.
void report_trace(Report& report, const RunConfig& config, const Spans& traced,
                  LayerValues layers);

/// Compares `digest` with golden/<workload>.digest when the run uses the
/// default seed (or writes it under --write-golden). Other seeds skip it.
void check_golden(Report& report, const RunConfig& config,
                  const std::string& workload, const std::string& digest);

/// Digest of the canonical sweep table (exp::sweep_table) of `rows`.
[[nodiscard]] std::string table_digest(
    const cloudwf::exp::SweepGridSpec& grid,
    const std::vector<cloudwf::exp::SweepRow>& rows);

/// The server both service workloads and the fabric run in-process: one
/// event loop, two compute workers, max_queue 256, an ephemeral loopback
/// port and the default response cache. With the one load-generator or
/// coordinator thread that keeps a workload within 4 busy threads.
[[nodiscard]] cloudwf::svc::ServerConfig server_config();

/// Base of a run's seed space, derived from --seed; every seed a workload
/// uses is this base plus a small offset, so runs with different --seed
/// values evaluate disjoint inputs.
[[nodiscard]] std::uint64_t seed_base(std::uint64_t seed);

Report run_sweep_paper(const RunConfig& config);
Report run_sweep_large(const RunConfig& config);
Report run_serve_cold(const RunConfig& config);
Report run_serve_hot(const RunConfig& config);
Report run_fabric(const RunConfig& config);

}  // namespace cloudwf_bench
