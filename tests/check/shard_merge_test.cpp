// Shard-merge oracle tests: a genuine merged sweep certifies clean, and
// every class of merge corruption — wrong size, shuffled rows, a flipped
// metric — is caught by the invariant that names it.
#include "check/shard_merge.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include "cloud/platform.hpp"
#include "exp/sweep_grid.hpp"
#include "workload/scenario.hpp"

namespace cloudwf::check {
namespace {

exp::SweepGridSpec small_grid() {
  exp::SweepGridSpec grid;
  grid.workflows = {"montage", "mapreduce"};
  grid.scenarios = {workload::ScenarioKind::pareto,
                    workload::ScenarioKind::worst_case};
  grid.strategies = {"AllPar1LnS", "StartParExceed-m"};
  grid.seed_begin = 0;
  grid.seed_end = 1;
  return grid;  // 16 cells
}

bool has_violation(const ShardMergeReport& report, const std::string& what) {
  return std::any_of(report.violations.begin(), report.violations.end(),
                     [&](const Violation& violation) {
                       return violation.invariant.find(what) !=
                              std::string::npos;
                     });
}

TEST(ShardMergeOracle, GenuineMergeCertifiesClean) {
  const cloud::Platform platform = cloud::Platform::ec2();
  const exp::SweepGridSpec grid = small_grid();
  const std::vector<exp::SweepRow> merged =
      exp::run_grid_serial(grid, platform);

  ShardMergeConfig config;
  config.samples = 6;
  const ShardMergeReport report =
      check_shard_merge(grid, merged, platform, config);
  EXPECT_TRUE(report.ok()) << report.to_string();
  EXPECT_EQ(report.cells_checked, grid.cell_count());
  EXPECT_EQ(report.cells_verified, 6u);
}

// Re-executed cells resolve names through the catalog, like the sweep
// itself: baselines and family:N verify too.
TEST(ShardMergeOracle, VerifiesBaselinesAndScaledFamilies) {
  const cloud::Platform platform = cloud::Platform::ec2();
  exp::SweepGridSpec grid;
  grid.workflows = {"ligo:60"};
  grid.scenarios = {workload::ScenarioKind::pareto};
  grid.strategies = {"SCS", "GAIN"};
  ShardMergeConfig config;
  config.samples = 2;
  const ShardMergeReport report = check_shard_merge(
      grid, exp::run_grid_serial(grid, platform), platform, config);
  EXPECT_TRUE(report.ok()) << report.to_string();
  EXPECT_EQ(report.cells_verified, 2u);
}

TEST(ShardMergeOracle, SamplingIsDeterministicInTheSeed) {
  const cloud::Platform platform = cloud::Platform::ec2();
  const exp::SweepGridSpec grid = small_grid();
  const std::vector<exp::SweepRow> merged =
      exp::run_grid_serial(grid, platform);

  ShardMergeConfig config;
  config.samples = 4;
  const auto first = check_shard_merge(grid, merged, platform, config);
  const auto second = check_shard_merge(grid, merged, platform, config);
  EXPECT_EQ(first.to_json().dump(), second.to_json().dump());
}

TEST(ShardMergeOracle, WrongRowCountIsMergeSize) {
  const cloud::Platform platform = cloud::Platform::ec2();
  const exp::SweepGridSpec grid = small_grid();
  std::vector<exp::SweepRow> merged = exp::run_grid_serial(grid, platform);
  merged.pop_back();  // a lost shard tail

  const ShardMergeReport report = check_shard_merge(grid, merged, platform);
  EXPECT_FALSE(report.ok());
  EXPECT_TRUE(has_violation(report, "merge-size")) << report.to_string();
}

TEST(ShardMergeOracle, ShuffledRowsAreMergeOrder) {
  const cloud::Platform platform = cloud::Platform::ec2();
  const exp::SweepGridSpec grid = small_grid();
  std::vector<exp::SweepRow> merged = exp::run_grid_serial(grid, platform);
  // Swap two rows with different strategy labels: the cheap full-sweep
  // order check must flag both positions without re-executing anything.
  std::swap(merged[0], merged[1]);

  const ShardMergeReport report = check_shard_merge(grid, merged, platform);
  EXPECT_FALSE(report.ok());
  EXPECT_TRUE(has_violation(report, "merge-order")) << report.to_string();
}

TEST(ShardMergeOracle, CorruptedMetricIsMergeCell) {
  const cloud::Platform platform = cloud::Platform::ec2();
  const exp::SweepGridSpec grid = small_grid();
  std::vector<exp::SweepRow> merged = exp::run_grid_serial(grid, platform);
  // Nudge one metric by one ULP-equivalent in every row: the seed and
  // strategy columns stay right (order check passes) but whichever cells
  // the oracle samples re-execute to different bits.
  for (exp::SweepRow& row : merged) row.total_cost_micros += 1;

  const ShardMergeReport report = check_shard_merge(grid, merged, platform);
  EXPECT_FALSE(report.ok());
  EXPECT_TRUE(has_violation(report, "merge-cell")) << report.to_string();
}

}  // namespace
}  // namespace cloudwf::check
