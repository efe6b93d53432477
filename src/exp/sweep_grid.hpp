// The sweep grid: the strategy x seed x scenario x workflow space the
// distributed fabric shards across processes and machines.
//
// A SweepGridSpec names the four axes; its cells are flattened in one
// canonical order — workflow-major, then scenario, then seed, then strategy
// (legend order) — which is exactly the order the serial reference
// (run_grid_serial) emits rows in. A ShardSpec is a contiguous slice
// [cell_begin, cell_end) of that flat space and is self-describing: it
// carries the full grid spec, so a worker can resolve every cell without
// any out-of-band state. partition_grid cuts the space into near-equal
// contiguous slices; merging shard results is therefore a pure
// concatenation in shard-id order, and the distributed answer is
// bit-identical to the serial one by *certification* (the differential
// tests and the CI smoke compare bytes), not merely by construction.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "cloud/platform.hpp"
#include "exp/experiment.hpp"
#include "workload/scenario.hpp"

namespace cloudwf::exp {

/// The four axes of a sweep. Workflow and strategy names are the catalog's
/// (exp/catalog.hpp), with "family:N" up to catalog::kMaxServedTasks.
struct SweepGridSpec {
  std::vector<std::string> workflows;
  std::vector<workload::ScenarioKind> scenarios;
  std::vector<std::string> strategies;
  std::uint64_t seed_begin = 0;  ///< first seed (inclusive)
  std::uint64_t seed_end = 0;    ///< last seed (inclusive)

  [[nodiscard]] std::uint64_t seed_count() const noexcept {
    return seed_end - seed_begin + 1;
  }
  /// Total flat cells: workflows x scenarios x seeds x strategies.
  [[nodiscard]] std::uint64_t cell_count() const noexcept;

  friend bool operator==(const SweepGridSpec&, const SweepGridSpec&) = default;
};

/// Throws std::invalid_argument when an axis is empty, the seed range is
/// inverted, the grid exceeds kMaxGridCells, or the catalog refuses a
/// workflow or strategy name (with the catalog's text).
void validate_grid(const SweepGridSpec& spec);

/// Hard cap on one grid's flat size — admission control for shard specs
/// arriving over the network (a single spec cannot smuggle in an unbounded
/// sweep).
inline constexpr std::uint64_t kMaxGridCells = 4'000'000;

/// One decoded cell of the flat space.
struct GridCell {
  std::string workflow;
  workload::ScenarioKind scenario = workload::ScenarioKind::pareto;
  std::uint64_t seed = 0;
  std::string strategy;
  std::size_t strategy_index = 0;  ///< index into spec.strategies
};

/// The cell at flat index `index` (canonical order; see the header comment).
[[nodiscard]] GridCell cell_at(const SweepGridSpec& spec, std::uint64_t index);

/// A contiguous slice of the flat cell space, self-describing via the
/// embedded grid. shard_id doubles as the canonical position: shards are
/// numbered in cell order, so merging results in shard-id order yields the
/// serial row order.
struct ShardSpec {
  std::uint64_t shard_id = 0;
  std::uint64_t cell_begin = 0;  ///< inclusive flat index
  std::uint64_t cell_end = 0;    ///< exclusive flat index
  SweepGridSpec grid;

  [[nodiscard]] std::uint64_t cell_count() const noexcept {
    return cell_end - cell_begin;
  }
  friend bool operator==(const ShardSpec&, const ShardSpec&) = default;
};

/// Cuts the grid into at most `shard_count` near-equal contiguous slices
/// (fewer when the grid has fewer cells than shards; at least one).
/// Deterministic: same spec + count always yields the same shards.
[[nodiscard]] std::vector<ShardSpec> partition_grid(const SweepGridSpec& spec,
                                                    std::size_t shard_count);

/// catalog::workflow(name, catalog::kMaxServedTasks); kept because the
/// benchmark calls it.
[[nodiscard]] dag::Workflow grid_workflow(const std::string& name);

/// One evaluated grid cell in exact integer fixed point: costs in
/// micro-dollars (util::Money.micros()), durations in microseconds, ratios
/// in millionths. This is the unit the fabric streams over the wire, the
/// unit merged sweeps are byte-compared in, and every binary response row
/// (svc::BinResultRow is this struct).
struct SweepRow {
  std::uint64_t seed = 0;
  std::string strategy;
  std::int64_t makespan_us = 0;
  std::int64_t vm_cost_micros = 0;
  std::int64_t egress_cost_micros = 0;
  std::int64_t total_cost_micros = 0;
  std::int64_t idle_us = 0;
  std::int64_t busy_us = 0;
  std::uint32_t vms_used = 0;
  std::int64_t total_btus = 0;
  std::int64_t utilization_ppm = 0;
  std::int64_t gain_pct_ppm = 0;
  std::int64_t loss_pct_ppm = 0;

  friend bool operator==(const SweepRow&, const SweepRow&) = default;
};

/// Fixed-point conversion of one RunResult.
[[nodiscard]] SweepRow sweep_row(const RunResult& result, std::uint64_t seed);

/// Runs one shard serially and returns its rows in canonical cell order.
/// Cells sharing a (workflow, scenario, seed) prefix share one materialized
/// workflow and one reference run — the same shape as
/// ExperimentRunner::run_all, so shard rows are bit-identical to the rows a
/// whole-grid serial run produces for the same cells.
[[nodiscard]] std::vector<SweepRow> run_shard(const ShardSpec& shard,
                                              const cloud::Platform& platform);

/// The serial reference: every cell of the grid, in canonical order.
[[nodiscard]] std::vector<SweepRow> run_grid_serial(
    const SweepGridSpec& spec, const cloud::Platform& platform);

/// Renders merged rows as the canonical sweep table: one
/// "workflow|scenario|seed|strategy|<integer metrics>" line per cell,
/// preceded by a header. Two sweeps over the same grid are byte-identical
/// iff their tables are — this is the artifact the CI smoke `cmp`s.
[[nodiscard]] std::string sweep_table(const SweepGridSpec& spec,
                                      const std::vector<SweepRow>& rows);

/// Reassembles a full sweep from per-shard rows. `shard_rows[i]` must hold
/// the rows of `shards[i]`; throws std::invalid_argument on a count
/// mismatch (a lost or short shard must never merge silently).
[[nodiscard]] std::vector<SweepRow> merge_shards(
    const std::vector<ShardSpec>& shards,
    const std::vector<std::vector<SweepRow>>& shard_rows);

}  // namespace cloudwf::exp
