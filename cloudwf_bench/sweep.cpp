// sweep-paper and sweep-large: one thread runs exp::run_grid_serial over
// consecutive fixed-size chunks of a grid until the window closes.
//
// sweep-paper is the paper grid (4 workflows x 5 scenarios, 19 strategies),
// where per-cell fixed costs (validation, metrics, materialization) are a
// visible share and the cold-start and variable-price billing paths run.
// sweep-large is five 2000-task Pegasus-shaped workflows under pareto,
// where the scheduler core dominates and per-cell overheads are small: the
// control workload for any per-cell overhead change.
#include <map>
#include <utility>

#include "cells.hpp"
#include "exp/sweep_grid.hpp"
#include "scheduling/factory.hpp"
#include "workloads.hpp"

namespace cloudwf_bench {

namespace {

namespace exp = cloudwf::exp;
using cloudwf::workload::ScenarioKind;

struct SweepShape {
  const char* name;
  std::vector<std::string> workflows;
  std::vector<ScenarioKind> scenarios;
  std::uint64_t seeds_per_chunk;
  std::size_t trace_chunks;  ///< chunks the traced replay covers
  /// Run a chunk as one call per workflow, each timed and host-probed on
  /// its own: for chunks of several hundred ms, a probe per call tracks the
  /// host's speed much more closely than one per chunk.
  bool call_per_workflow;
};

/// Offset of the warm-up seeds, far above any chunk's seeds.
constexpr std::uint64_t kWarmupSeedOffset = std::uint64_t{1} << 32;

/// One group in 100 is re-evaluated and audited by the oracle.
constexpr std::uint64_t kAuditEvery = 100;

exp::SweepGridSpec chunk_grid(const SweepShape& shape, std::uint64_t first_seed,
                              std::uint64_t seeds) {
  exp::SweepGridSpec grid;
  grid.workflows = shape.workflows;
  grid.scenarios = shape.scenarios;
  grid.strategies = cloudwf::scheduling::paper_strategy_labels();
  grid.seed_begin = first_seed;
  grid.seed_end = first_seed + seeds - 1;
  return grid;
}

/// The one-group grid of a (workflow, scenario, seed) group.
exp::SweepGridSpec group_grid(const SweepShape& shape,
                              const exp::GridCell& cell) {
  exp::SweepGridSpec grid = chunk_grid(shape, cell.seed, 1);
  grid.workflows = {cell.workflow};
  grid.scenarios = {cell.scenario};
  return grid;
}

/// A group kept for the after-window audit, with the digest of the rows the
/// sweep gave (a digest, so the audit sample does not grow peak RSS).
struct KeptGroup {
  exp::GridCell cell;
  std::string digest;
};

/// Replays a chunk through the public decomposition, group by group in
/// canonical order, building each workflow once as run_shard does.
std::vector<exp::SweepRow> replay_chunk(
    const exp::SweepGridSpec& grid, const cloudwf::cloud::Platform& platform,
    Spans& spans, std::uint64_t& op) {
  const auto strategies = strategies_for(grid.strategies);
  std::vector<exp::SweepRow> rows;
  for (const std::string& name : grid.workflows) {
    const cloudwf::dag::Workflow structure = [&] {
      const auto s = spans.scope("dag.build", op);
      return exp::grid_workflow(name);
    }();
    for (const ScenarioKind scenario : grid.scenarios) {
      for (std::uint64_t seed = grid.seed_begin; seed <= grid.seed_end;
           ++seed) {
        const auto group = spans.scope("exp.group", ++op);
        for (const exp::RunResult& r : evaluate_group(
                 structure, scenario, seed, strategies, platform, spans, op))
          rows.push_back(exp::sweep_row(r, seed));
      }
    }
  }
  return rows;
}

Report run_sweep(const SweepShape& shape, const RunConfig& config) {
  Report report;
  const cloudwf::cloud::Platform platform = cloudwf::cloud::Platform::ec2();
  const std::uint64_t base = seed_base(config.seed);
  const std::uint64_t per_chunk = shape.seeds_per_chunk;

  // Set-up: resolve the grid and warm every workflow once. Repeated and
  // reported as the median, so one slow start does not move setup_s.
  ScaledTimes setups;
  for (int rep = 0; rep < (config.smoke ? 1 : 3); ++rep) {
    const Clock::time_point start = Clock::now();
    exp::validate_grid(chunk_grid(shape, base, per_chunk));
    exp::SweepGridSpec warm = chunk_grid(shape, base + kWarmupSeedOffset, 1);
    warm.scenarios.resize(1);
    if (exp::run_grid_serial(warm, platform).size() != warm.cell_count())
      report.fail("warm-up sweep returned a short table");
    setups.add(ms_between(start, Clock::now()));
  }

  // Timed window. Only the run_grid_serial calls are timed; the host probe,
  // golden, audit sampling and row retention happen between them.
  ScaledTimes call_ms;
  std::vector<double> chunk_ms;  // scaled
  std::vector<double> chunk_cells;
  std::vector<KeptGroup> audit;
  std::vector<std::vector<exp::SweepRow>> traced_rows;
  std::uint64_t cells = 0;
  std::uint64_t group_index = 0;
  const double window = config.smoke ? config.seconds / 100 : config.seconds;
  const Clock::time_point window_start = Clock::now();
  for (std::uint64_t chunk = 0;
       chunk == 0 || seconds_since(window_start) < window; ++chunk) {
    const exp::SweepGridSpec grid =
        chunk_grid(shape, base + chunk * per_chunk, per_chunk);
    std::vector<exp::SweepRow> rows;
    double scaled_ms = 0;
    std::vector<exp::SweepGridSpec> calls;
    if (shape.call_per_workflow) {
      for (const std::string& workflow : grid.workflows) {
        calls.push_back(grid);
        calls.back().workflows = {workflow};
      }
    } else {
      calls.push_back(grid);
    }
    for (const exp::SweepGridSpec& call : calls) {
      const Clock::time_point start = Clock::now();
      std::vector<exp::SweepRow> part = exp::run_grid_serial(call, platform);
      const double raw_ms = ms_between(start, Clock::now());
      scaled_ms += raw_ms * call_ms.add(raw_ms);
      rows.insert(rows.end(), part.begin(), part.end());
    }
    chunk_ms.push_back(scaled_ms);
    chunk_cells.push_back(static_cast<double>(rows.size()));
    cells += rows.size();

    if (rows.size() != grid.cell_count()) {
      report.fail("chunk " + std::to_string(chunk) + " returned " +
                      std::to_string(rows.size()) + " rows",
                  grid.cell_count());
      continue;
    }
    if (chunk == 0)
      check_golden(report, config, shape.name, table_digest(grid, rows));
    const std::size_t strategies = grid.strategies.size();
    for (std::size_t g = 0; g * strategies < rows.size(); ++g, ++group_index) {
      if (group_index % kAuditEvery != 0) continue;
      const exp::GridCell cell = exp::cell_at(grid, g * strategies);
      const auto first =
          rows.begin() + static_cast<std::ptrdiff_t>(g * strategies);
      const auto last = first + static_cast<std::ptrdiff_t>(strategies);
      audit.push_back(
          {cell, table_digest(group_grid(shape, cell), {first, last})});
    }
    if (config.trace && chunk < shape.trace_chunks)
      traced_rows.push_back(std::move(rows));
  }
  report.attempted = cells;

  const auto cells_per_chunk = static_cast<std::uint64_t>(chunk_cells.front());
  report.end_to_end("ops_per_s", median_rate(chunk_cells, chunk_ms), "ops/s");
  report.end_to_end("latency_p50_ms", median(chunk_ms), "ms");
  report.end_to_end("setup_s", median(setups.scaled_ms()) / 1000, "s");

  // After the window: the sampled groups must replay to the same rows and
  // every one of their schedules must pass the oracle.
  {
    Spans off(false);
    std::map<std::string, cloudwf::dag::Workflow> structures;
    const auto strategies =
        strategies_for(cloudwf::scheduling::paper_strategy_labels());
    Audit oracle;
    std::uint64_t op = 0;
    for (const KeptGroup& kept : audit) {
      const exp::GridCell& cell = kept.cell;
      auto it = structures.find(cell.workflow);
      if (it == structures.end())
        it = structures
                 .emplace(cell.workflow, exp::grid_workflow(cell.workflow))
                 .first;
      std::vector<exp::SweepRow> rows;
      for (const exp::RunResult& r :
           evaluate_group(it->second, cell.scenario, cell.seed, strategies,
                          platform, off, ++op, &oracle))
        rows.push_back(exp::sweep_row(r, cell.seed));
      if (table_digest(group_grid(shape, cell), rows) != kept.digest)
        report.fail("replayed group differs from run_grid_serial: " +
                        cell.workflow + " seed " + std::to_string(cell.seed),
                    rows.size());
    }
    if (oracle.violations > 0)
      report.fail(std::to_string(oracle.violations) +
                      " oracle violations, first: " + oracle.first,
                  oracle.violations);
    if (oracle.schedules == 0) report.fail("no group was audited");
  }

  if (!config.trace) return report;

  // Traced replay of the first chunks, once with spans and once without:
  // per-layer busy times, and the cost of the spans themselves.
  LayerValues layers;
  Spans traced(true);
  Spans off(false);
  double traced_s = 0;
  double untraced_s = 0;
  std::uint64_t op = 0;
  for (std::size_t chunk = 0; chunk < traced_rows.size(); ++chunk) {
    const exp::SweepGridSpec grid =
        chunk_grid(shape, base + chunk * per_chunk, per_chunk);
    Clock::time_point start = Clock::now();
    const auto plain = replay_chunk(grid, platform, off, op);
    untraced_s += seconds_since(start);
    start = Clock::now();
    const auto spanned = replay_chunk(grid, platform, traced, op);
    traced_s += seconds_since(start);
    if (plain != traced_rows[chunk] || spanned != traced_rows[chunk])
      report.fail("traced replay of chunk " + std::to_string(chunk) +
                      " differs from run_grid_serial",
                  cells_per_chunk);
  }
  layers["trace.overhead"] = traced_s / untraced_s;
  layers["bench.host_factor"] = call_ms.host_factor();
  report_trace(report, config, traced, std::move(layers));
  return report;
}

}  // namespace

Report run_sweep_paper(const RunConfig& config) {
  using K = ScenarioKind;
  return run_sweep({"sweep-paper",
                    {"montage", "cstem", "mapreduce", "sequential"},
                    {K::pareto, K::best_case, K::worst_case, K::cold_start,
                     K::variable_price},
                    10,
                    2,
                    false},
                   config);
}

Report run_sweep_large(const RunConfig& config) {
  return run_sweep({"sweep-large",
                    {"epigenomics:2000", "cybershake:2000", "ligo:2000",
                     "sipht:2000", "montage:2000"},
                    {ScenarioKind::pareto},
                    1,
                    1,
                    true},
                   config);
}

}  // namespace cloudwf_bench
