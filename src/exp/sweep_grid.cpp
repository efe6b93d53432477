#include "exp/sweep_grid.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <map>
#include <numeric>
#include <stdexcept>

#include "exp/catalog.hpp"

namespace cloudwf::exp {
namespace {

/// llround(value * 1e6) with NaN->0 and saturation at the i64 range.
std::int64_t fixed_ppm(double value) {
  const double scaled = value * 1e6;
  if (std::isnan(scaled)) return 0;
  if (scaled >= 9.2e18) return std::numeric_limits<std::int64_t>::max();
  if (scaled <= -9.2e18) return std::numeric_limits<std::int64_t>::min();
  return std::llround(scaled);
}

}  // namespace

std::uint64_t SweepGridSpec::cell_count() const noexcept {
  // Saturating product: every factor is bounded by validate_grid's cap, but
  // cell_count is also called *during* validation, so guard each multiply.
  const auto max64 = std::numeric_limits<std::uint64_t>::max();
  std::uint64_t n = workflows.size();
  const auto mul = [&](std::uint64_t factor) {
    if (factor != 0 && n > max64 / factor)
      n = max64;
    else
      n *= factor;
  };
  mul(scenarios.size());
  mul(seed_count());
  mul(strategies.size());
  return n;
}

void validate_grid(const SweepGridSpec& spec) {
  if (spec.workflows.empty())
    throw std::invalid_argument("grid has no workflows");
  if (spec.scenarios.empty())
    throw std::invalid_argument("grid has no scenarios");
  if (spec.strategies.empty())
    throw std::invalid_argument("grid has no strategies");
  // No grid holds more seeds than cells; checked before cell_count, whose
  // seed_count wraps to 0 on the full u64 range.
  catalog::check_seeds(spec.seed_begin, spec.seed_end, kMaxGridCells);
  if (spec.cell_count() > kMaxGridCells)
    throw std::invalid_argument("grid has " +
                                std::to_string(spec.cell_count()) +
                                " cells, cap is " +
                                std::to_string(kMaxGridCells));
  for (const std::string& name : spec.workflows)
    catalog::check_workflow(name, catalog::kMaxServedTasks);
  for (const auto kind : spec.scenarios) (void)workload::name_of(kind);
  for (const std::string& label : spec.strategies)
    (void)catalog::strategy(label);
}

GridCell cell_at(const SweepGridSpec& spec, std::uint64_t index) {
  if (index >= spec.cell_count())
    throw std::invalid_argument("cell index " + std::to_string(index) +
                                " out of range");
  GridCell cell;
  const std::uint64_t n_strat = spec.strategies.size();
  const std::uint64_t n_seed = spec.seed_count();
  const std::uint64_t n_scen = spec.scenarios.size();
  cell.strategy_index = static_cast<std::size_t>(index % n_strat);
  cell.strategy = spec.strategies[cell.strategy_index];
  index /= n_strat;
  cell.seed = spec.seed_begin + index % n_seed;
  index /= n_seed;
  cell.scenario = spec.scenarios[static_cast<std::size_t>(index % n_scen)];
  index /= n_scen;
  cell.workflow = spec.workflows[static_cast<std::size_t>(index)];
  return cell;
}

std::vector<ShardSpec> partition_grid(const SweepGridSpec& spec,
                                      std::size_t shard_count) {
  validate_grid(spec);
  const std::uint64_t cells = spec.cell_count();
  const std::uint64_t shards =
      std::max<std::uint64_t>(1, std::min<std::uint64_t>(shard_count, cells));
  const std::uint64_t base = cells / shards;
  const std::uint64_t extra = cells % shards;

  std::vector<ShardSpec> out;
  out.reserve(static_cast<std::size_t>(shards));
  std::uint64_t begin = 0;
  for (std::uint64_t i = 0; i < shards; ++i) {
    ShardSpec shard;
    shard.shard_id = i;
    shard.cell_begin = begin;
    shard.cell_end = begin + base + (i < extra ? 1 : 0);
    shard.grid = spec;
    begin = shard.cell_end;
    out.push_back(std::move(shard));
  }
  return out;
}

dag::Workflow grid_workflow(const std::string& name) {
  return catalog::workflow(name, catalog::kMaxServedTasks);
}

SweepRow sweep_row(const RunResult& result, std::uint64_t seed) {
  SweepRow row;
  row.seed = seed;
  row.strategy = result.strategy;
  row.makespan_us = fixed_ppm(result.metrics.makespan);
  row.vm_cost_micros = result.metrics.vm_cost.micros();
  row.egress_cost_micros = result.metrics.egress_cost.micros();
  row.total_cost_micros = result.metrics.total_cost.micros();
  row.idle_us = fixed_ppm(result.metrics.total_idle);
  row.busy_us = fixed_ppm(result.metrics.total_busy);
  row.vms_used = static_cast<std::uint32_t>(result.metrics.vms_used);
  row.total_btus = result.metrics.total_btus;
  row.utilization_ppm = fixed_ppm(result.metrics.utilization);
  row.gain_pct_ppm = fixed_ppm(result.relative.gain_pct);
  row.loss_pct_ppm = fixed_ppm(result.relative.loss_pct);
  return row;
}

std::vector<SweepRow> run_shard(const ShardSpec& shard,
                                const cloud::Platform& platform) {
  validate_grid(shard.grid);
  if (shard.cell_end < shard.cell_begin ||
      shard.cell_end > shard.grid.cell_count())
    throw std::invalid_argument("shard cell range out of grid bounds");

  // Resolve axes once; structures are cached per workflow name so a shard
  // spanning many seeds does not rebuild the DAG per cell.
  std::vector<scheduling::Strategy> strategies;
  strategies.reserve(shard.grid.strategies.size());
  for (const std::string& label : shard.grid.strategies)
    strategies.push_back(catalog::strategy(label));
  std::map<std::string, dag::Workflow> structures;

  std::vector<SweepRow> rows;
  rows.reserve(static_cast<std::size_t>(shard.cell_count()));

  // Consecutive cells share their (workflow, scenario, seed) prefix, so walk
  // the range group-wise: one materialization + one OneVMperTask-s reference
  // per group, exactly like run_all — which is what keeps shard rows
  // bit-identical to a whole-grid serial run over the same cells.
  std::uint64_t index = shard.cell_begin;
  while (index < shard.cell_end) {
    const GridCell first = cell_at(shard.grid, index);
    const std::uint64_t group_end =
        std::min(shard.cell_end, index - first.strategy_index +
                                     shard.grid.strategies.size());

    auto it = structures.find(first.workflow);
    if (it == structures.end())
      it = structures
               .emplace(first.workflow,
                        catalog::workflow(first.workflow,
                                          catalog::kMaxServedTasks))
               .first;

    workload::ScenarioConfig cfg;
    cfg.seed = first.seed;
    const ExperimentRunner runner(platform, cfg, ParallelConfig::serial());
    const std::vector<scheduling::Strategy> subset(
        strategies.begin() + static_cast<std::ptrdiff_t>(first.strategy_index),
        strategies.begin() +
            static_cast<std::ptrdiff_t>(first.strategy_index + group_end -
                                        index));
    const std::vector<RunResult> results = runner.run_many(
        subset, it->second, first.scenario, ParallelConfig::serial());
    for (const RunResult& r : results) rows.push_back(sweep_row(r, first.seed));
    index = group_end;
  }
  return rows;
}

std::vector<SweepRow> run_grid_serial(const SweepGridSpec& spec,
                                      const cloud::Platform& platform) {
  ShardSpec all;
  all.shard_id = 0;
  all.cell_begin = 0;
  all.cell_end = spec.cell_count();
  all.grid = spec;
  return run_shard(all, platform);
}

std::string sweep_table(const SweepGridSpec& spec,
                        const std::vector<SweepRow>& rows) {
  if (rows.size() != spec.cell_count())
    throw std::invalid_argument(
        "sweep table needs " + std::to_string(spec.cell_count()) +
        " rows, got " + std::to_string(rows.size()));
  std::string out =
      "workflow|scenario|seed|strategy|makespan_us|vm_cost_micros|"
      "egress_cost_micros|total_cost_micros|idle_us|busy_us|vms_used|"
      "total_btus|utilization_ppm|gain_pct_ppm|loss_pct_ppm\n";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const GridCell cell = cell_at(spec, i);
    const SweepRow& r = rows[i];
    out += cell.workflow;
    out += '|';
    out += workload::name_of(cell.scenario);
    out += '|';
    out += std::to_string(r.seed);
    out += '|';
    out += r.strategy;
    out += '|';
    out += std::to_string(r.makespan_us);
    out += '|';
    out += std::to_string(r.vm_cost_micros);
    out += '|';
    out += std::to_string(r.egress_cost_micros);
    out += '|';
    out += std::to_string(r.total_cost_micros);
    out += '|';
    out += std::to_string(r.idle_us);
    out += '|';
    out += std::to_string(r.busy_us);
    out += '|';
    out += std::to_string(r.vms_used);
    out += '|';
    out += std::to_string(r.total_btus);
    out += '|';
    out += std::to_string(r.utilization_ppm);
    out += '|';
    out += std::to_string(r.gain_pct_ppm);
    out += '|';
    out += std::to_string(r.loss_pct_ppm);
    out += '\n';
  }
  return out;
}

std::vector<SweepRow> merge_shards(
    const std::vector<ShardSpec>& shards,
    const std::vector<std::vector<SweepRow>>& shard_rows) {
  if (shards.size() != shard_rows.size())
    throw std::invalid_argument("merge: shard/result count mismatch");
  if (shards.empty()) throw std::invalid_argument("merge: no shards");

  // Accept shards in any arrival order but demand they tile the grid: sort
  // by cell_begin, then the slices must be contiguous from zero and each
  // must have produced exactly its cell count.
  std::vector<std::size_t> order(shards.size());
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return shards[a].cell_begin < shards[b].cell_begin;
  });

  const std::uint64_t total = shards[order[0]].grid.cell_count();
  std::vector<SweepRow> out;
  out.reserve(static_cast<std::size_t>(total));
  std::uint64_t expect = 0;
  for (const std::size_t i : order) {
    if (shards[i].grid != shards[order[0]].grid)
      throw std::invalid_argument("merge: shards disagree on the grid");
    if (shards[i].cell_begin != expect)
      throw std::invalid_argument(
          "merge: shard slices leave a gap at cell " + std::to_string(expect));
    if (shard_rows[i].size() != shards[i].cell_count())
      throw std::invalid_argument(
          "merge: shard " + std::to_string(shards[i].shard_id) + " produced " +
          std::to_string(shard_rows[i].size()) + " rows, expected " +
          std::to_string(shards[i].cell_count()));
    out.insert(out.end(), shard_rows[i].begin(), shard_rows[i].end());
    expect = shards[i].cell_end;
  }
  if (expect != total)
    throw std::invalid_argument("merge: shards cover " +
                                std::to_string(expect) + " of " +
                                std::to_string(total) + " cells");
  return out;
}

}  // namespace cloudwf::exp
