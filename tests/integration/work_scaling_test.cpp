// Scaling guard from exact work counts: the VM pool's reuse index and the
// NotExceed AllPar reuse query must do near-linear work as a workflow grows.
// Wall-clock gates on a shared host drift by tens of percent; these counts
// are integers that only change when the algorithm does. Every family runs
// the reference and the 19 paper strategies at 1k and 2k tasks, and wherever
// a count is large enough to mean something (>= 1,000 at 1k), doubling the
// tasks may at most multiply it by 2.2. An O(VMs) step per task shows up as
// a factor near 4.
#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "dag/science.hpp"
#include "exp/experiment.hpp"
#include "obs/work.hpp"
#include "scheduling/factory.hpp"
#include "workload/scenario.hpp"

namespace cloudwf {
namespace {

constexpr std::array kCounters = {obs::Work::reuse_slots_moved,
                                  obs::Work::reuse_vms_examined};
constexpr std::uint64_t kMinimumCount = 1'000;
constexpr double kMaxGrowth = 2.2;

using Counts = std::array<std::uint64_t, kCounters.size()>;

Counts counted(const scheduling::Strategy& strategy, const dag::Workflow& wf,
               const cloud::Platform& platform) {
  Counts before{}, after{};
  for (std::size_t c = 0; c < kCounters.size(); ++c)
    before[c] = obs::work_total(kCounters[c]);
  (void)strategy.scheduler->run(wf, platform);
  for (std::size_t c = 0; c < kCounters.size(); ++c)
    after[c] = obs::work_total(kCounters[c]) - before[c];
  return after;
}

/// Counts per strategy, the reference first, on `family` scaled to `tasks`.
std::vector<Counts> family_counts(dag::science::Family family, std::size_t tasks,
                                  const std::vector<scheduling::Strategy>& all) {
  const exp::ExperimentRunner runner;
  const dag::Workflow wf = runner.materialize(dag::science::scaled(family, tasks),
                                              workload::ScenarioKind::pareto);
  const cloud::Platform platform =
      runner.scenario_platform(workload::ScenarioKind::pareto);
  std::vector<Counts> out;
  for (const scheduling::Strategy& s : all) out.push_back(counted(s, wf, platform));
  return out;
}

TEST(WorkScaling, ReuseIndexAndNotExceedScanGrowNearLinearly) {
  std::vector<scheduling::Strategy> all = {scheduling::reference_strategy()};
  for (scheduling::Strategy& s : scheduling::paper_strategies())
    all.push_back(std::move(s));

  std::size_t guarded = 0;
  for (const dag::science::Family family : dag::science::kAllFamilies) {
    const std::vector<Counts> small = family_counts(family, 1000, all);
    const std::vector<Counts> large = family_counts(family, 2000, all);
    for (std::size_t i = 0; i < all.size(); ++i) {
      for (std::size_t c = 0; c < kCounters.size(); ++c) {
        if (small[i][c] < kMinimumCount) continue;
        ++guarded;
        const double growth = static_cast<double>(large[i][c]) /
                              static_cast<double>(small[i][c]);
        EXPECT_LE(growth, kMaxGrowth)
            << obs::name_of(kCounters[c]) << " of "
            << (i == 0 ? "the reference" : all[i].label) << " on "
            << dag::science::name_of(family) << ": " << small[i][c]
            << " at 1k tasks, " << large[i][c] << " at 2k";
      }
    }
  }
  // The guard must actually guard: both counters reach the floor somewhere.
  EXPECT_GE(guarded, 10u);
}

}  // namespace
}  // namespace cloudwf
