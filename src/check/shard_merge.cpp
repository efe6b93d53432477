#include "check/shard_merge.hpp"

#include <algorithm>
#include <set>
#include <utility>

#include "exp/catalog.hpp"
#include "sim/metrics.hpp"
#include "sim/schedule.hpp"
#include "util/rng.hpp"
#include "workload/scenario.hpp"

namespace cloudwf::check {

namespace {

std::string cell_label(const exp::GridCell& cell, std::uint64_t index) {
  return cell.workflow + "/" + std::string(workload::name_of(cell.scenario)) +
         "/seed " + std::to_string(cell.seed) + "/" + cell.strategy +
         " (flat index " + std::to_string(index) + ")";
}

}  // namespace

util::Json ShardMergeReport::to_json() const {
  util::Json doc = util::Json::object();
  doc["cells_checked"] = static_cast<std::int64_t>(cells_checked);
  doc["cells_verified"] = static_cast<std::int64_t>(cells_verified);
  doc["ok"] = ok();
  util::Json list = util::Json::array();
  for (const Violation& v : violations) list.push_back(v.to_json());
  doc["violations"] = std::move(list);
  return doc;
}

std::string ShardMergeReport::to_string() const {
  std::string out;
  for (const Violation& v : violations) {
    if (!out.empty()) out += '\n';
    out += v.invariant;
    out += ": ";
    out += v.detail;
  }
  return out;
}

ShardMergeReport check_shard_merge(const exp::SweepGridSpec& grid,
                                   const std::vector<exp::SweepRow>& merged,
                                   const cloud::Platform& platform,
                                   const ShardMergeConfig& config) {
  exp::validate_grid(grid);

  ShardMergeReport report;
  const auto violate = [&](std::string invariant, std::string detail) {
    report.violations.push_back({std::move(invariant), std::move(detail)});
  };

  const std::uint64_t cells = grid.cell_count();
  if (merged.size() != cells) {
    violate("merge-size", "merged holds " + std::to_string(merged.size()) +
                              " rows, grid has " + std::to_string(cells) +
                              " cells");
    return report;  // indices below would be meaningless
  }

  // Cheap full pass: the row at flat index i must carry cell i's seed and
  // strategy label. Catches shuffled, duplicated or mis-concatenated merges
  // across the whole sweep without re-running anything. Capped violation
  // output — a systematically broken merge would otherwise flood the report.
  for (std::uint64_t i = 0; i < cells; ++i) {
    const exp::GridCell cell = exp::cell_at(grid, i);
    const exp::SweepRow& row = merged[static_cast<std::size_t>(i)];
    if (row.seed != cell.seed || row.strategy != cell.strategy) {
      violate("merge-order",
              "row " + std::to_string(i) + " is (seed " +
                  std::to_string(row.seed) + ", " + row.strategy +
                  "), cell expects (seed " + std::to_string(cell.seed) + ", " +
                  cell.strategy + ")");
      if (report.violations.size() >= 8) return report;
      continue;
    }
    ++report.cells_checked;
  }
  if (!report.violations.empty()) return report;

  // Deep verification on a deterministic sample: re-execute each picked
  // cell through the exact single-cell shard path and demand bitwise row
  // equality, then rebuild its schedule from scratch and run the full
  // 8-invariant oracle over it.
  const std::size_t samples = static_cast<std::size_t>(
      std::min<std::uint64_t>(config.samples, cells));
  std::uint64_t stream = config.seed;
  std::set<std::uint64_t> picked;
  while (picked.size() < samples)
    picked.insert(util::splitmix64(stream) % cells);

  for (const std::uint64_t index : picked) {
    const exp::GridCell cell = exp::cell_at(grid, index);

    exp::ShardSpec one;
    one.shard_id = 0;
    one.cell_begin = index;
    one.cell_end = index + 1;
    one.grid = grid;
    const std::vector<exp::SweepRow> rerun = exp::run_shard(one, platform);
    if (rerun.size() != 1 ||
        !(rerun.front() == merged[static_cast<std::size_t>(index)])) {
      violate("merge-cell", cell_label(cell, index) +
                                ": re-executed row differs from merged row");
      continue;
    }

    // Same materialization the shard path used: seed via ScenarioConfig,
    // scenario via materialize. The freshly built schedule must pass every
    // platform-model invariant.
    workload::ScenarioConfig cfg;
    cfg.seed = cell.seed;
    const exp::ExperimentRunner runner(platform, cfg);
    const dag::Workflow materialized = runner.materialize(
        exp::catalog::workflow(cell.workflow, exp::catalog::kMaxServedTasks),
        cell.scenario);
    const scheduling::Strategy& strategy = exp::catalog::strategy(cell.strategy);
    const sim::Schedule schedule =
        strategy.scheduler->run(materialized, platform);
    OracleReport oracle = check_schedule(materialized, schedule, platform);
    for (Violation& v : oracle.violations)
      violate("merge-oracle/" + v.invariant,
              cell_label(cell, index) + ": " + v.detail);
    ++report.cells_verified;
  }
  return report;
}

}  // namespace cloudwf::check
