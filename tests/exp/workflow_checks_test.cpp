// Exact count of workflow checks per (workflow, scenario, seed) group. A
// group materializes one copy of the structure and runs the OneVMperTask-s
// reference and the strategies on it: the reference run's validate() checks
// the copy, and every later check in the group, apply_scenario's on the
// already validated structure among them, reuses a kept verdict. Without
// the verdict a group of the 19 paper strategies runs 21 checks.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>

#include "cloud/platform.hpp"
#include "exp/catalog.hpp"
#include "exp/experiment.hpp"
#include "exp/sweep_grid.hpp"
#include "obs/work.hpp"
#include "scheduling/factory.hpp"
#include "workload/scenario.hpp"

namespace cloudwf::exp {
namespace {

template <class F>
std::uint64_t checks_during(F&& run) {
  const std::uint64_t before = obs::work_total(obs::Work::workflow_checks);
  run();
  return obs::work_total(obs::Work::workflow_checks) - before;
}

/// The 19 paper strategies over `workflow` x `scenario` x seeds 0..2.
ShardSpec whole_grid(const std::string& workflow, workload::ScenarioKind scenario) {
  ShardSpec shard;
  shard.grid.workflows = {workflow};
  shard.grid.scenarios = {scenario};
  for (const scheduling::Strategy& s : scheduling::paper_strategies())
    shard.grid.strategies.push_back(s.label);
  shard.grid.seed_begin = 0;
  shard.grid.seed_end = 2;
  shard.cell_end = shard.grid.cell_count();
  return shard;
}

TEST(WorkflowChecks, RunAllChecksEachGroupOnce) {
  const std::shared_ptr<const dag::Workflow> montage =
      catalog::workflow("montage", catalog::kMaxServedTasks);
  const std::shared_ptr<const dag::Workflow> ligo =
      catalog::workflow("ligo:60", catalog::kMaxServedTasks);
  const ExperimentRunner runner;
  EXPECT_EQ(checks_during([&] {
              (void)runner.run_all(*montage, workload::ScenarioKind::pareto);
            }),
            1u);
  EXPECT_EQ(checks_during([&] {
              (void)runner.run_all(*ligo, workload::ScenarioKind::cold_start,
                                   ParallelConfig::serial());
            }),
            1u);
}

TEST(WorkflowChecks, RunShardChecksEachGroupOnce) {
  (void)catalog::workflow("montage", catalog::kMaxServedTasks);  // resident
  const cloud::Platform platform = cloud::Platform::ec2();

  const ShardSpec montage = whole_grid("montage", workload::ScenarioKind::pareto);
  ASSERT_EQ(montage.cell_count(), 3u * 19u);
  EXPECT_EQ(checks_during([&] { (void)run_shard(montage, platform); }), 3u);

  // family:N is built once per shard, and its builder checks what it built.
  const ShardSpec ligo = whole_grid("ligo:60", workload::ScenarioKind::cold_start);
  EXPECT_EQ(checks_during([&] { (void)run_shard(ligo, platform); }), 3u + 1u);
}

}  // namespace
}  // namespace cloudwf::exp
