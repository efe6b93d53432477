// Metamorphic properties: transformations of the input with a provable
// effect on the output. These catch whole classes of bookkeeping bugs that
// example-based tests cannot.
#include <gtest/gtest.h>

#include "dag/builders.hpp"
#include "dag/graph_algo.hpp"
#include "exp/catalog.hpp"
#include "exp/experiment.hpp"
#include "scheduling/factory.hpp"
#include "sim/metrics.hpp"
#include "sim/validator.hpp"
#include "workload/scenario.hpp"

namespace cloudwf {
namespace {

dag::Workflow pareto(const dag::Workflow& base) {
  workload::ScenarioConfig cfg;
  return workload::apply_scenario(base, cfg);
}

// Renaming every task (ids and structure unchanged) must not change any
// metric of any strategy: schedulers may only depend on structure/works.
TEST(Metamorphic, TaskNamesAreIrrelevant) {
  const dag::Workflow original = pareto(dag::builders::montage24());
  dag::Workflow renamed("renamed");
  for (const dag::Task& t : original.tasks())
    (void)renamed.add_task("x" + std::to_string(t.id), t.work, t.output_data);
  for (const dag::Edge& e : original.edges())
    renamed.add_edge(e.from, e.to, e.data);

  const cloud::Platform platform = cloud::Platform::ec2();
  for (const scheduling::Strategy& s : scheduling::paper_strategies()) {
    const sim::ScheduleMetrics a = sim::compute_metrics(
        original, s.scheduler->run(original, platform), platform);
    const sim::ScheduleMetrics b = sim::compute_metrics(
        renamed, s.scheduler->run(renamed, platform), platform);
    EXPECT_DOUBLE_EQ(a.makespan, b.makespan) << s.label;
    EXPECT_EQ(a.total_cost, b.total_cost) << s.label;
    EXPECT_DOUBLE_EQ(a.total_idle, b.total_idle) << s.label;
  }
}

// Doubling every price doubles every cost and leaves makespans untouched;
// the relative gain/loss picture is invariant.
TEST(Metamorphic, PriceScalingScalesCostsLinearly) {
  std::vector<cloud::Region> doubled(cloud::ec2_regions().begin(),
                                     cloud::ec2_regions().end());
  for (cloud::Region& r : doubled) {
    for (util::Money& p : r.price_per_btu) p = p * 2;
    r.transfer_out_per_gb = r.transfer_out_per_gb * 2;
  }
  const cloud::Platform normal = cloud::Platform::ec2();
  const cloud::Platform pricey(doubled, cloud::kDefaultRegion);

  const dag::Workflow wf = pareto(dag::builders::cstem());
  for (const char* label :
       {"OneVMperTask-s", "AllParExceed-m", "AllPar1LnS", "SHEFT"}) {
    // Dynamic SAs budget off the seed *cost*, which scales with prices, so
    // their decisions are scale-invariant too (budget and candidate costs
    // double together). SHEFT is deadline-driven: trivially invariant.
    const scheduling::Strategy& s = exp::catalog::strategy(label);
    const sim::ScheduleMetrics a =
        sim::compute_metrics(wf, s.scheduler->run(wf, normal), normal);
    const sim::ScheduleMetrics b =
        sim::compute_metrics(wf, s.scheduler->run(wf, pricey), pricey);
    EXPECT_DOUBLE_EQ(a.makespan, b.makespan) << label;
    EXPECT_EQ(a.total_cost * 2, b.total_cost) << label;
  }
}

// With no data (zero transfers) and one VM per task, scaling every work by
// k scales the makespan by exactly k.
TEST(Metamorphic, WorkScalingIsLinearWithoutTransfers) {
  workload::ScenarioConfig cfg;
  cfg.kind = workload::ScenarioKind::best_case;  // equal works, zero data
  const dag::Workflow base =
      workload::apply_scenario(dag::builders::montage24(), cfg);
  dag::Workflow scaled = base;
  for (const dag::Task& t : base.tasks()) scaled.task(t.id).work = t.work * 3.0;

  const cloud::Platform platform = cloud::Platform::ec2();
  const scheduling::Strategy s = scheduling::reference_strategy();
  const util::Seconds ms1 = s.scheduler->run(base, platform).makespan();
  const util::Seconds ms3 = s.scheduler->run(scaled, platform).makespan();
  // Transfers are pure latency here (~ms); allow that slack.
  EXPECT_NEAR(ms3, 3.0 * ms1, 0.01 * ms1);
}

// Adding a transitively redundant zero-data edge never breaks feasibility
// for any strategy (it can reorder/retime, but every constraint still holds).
TEST(Metamorphic, RedundantEdgeKeepsEveryStrategyFeasible) {
  dag::Workflow wf = pareto(dag::builders::map_reduce(4, 2));
  // split -> merge is implied transitively; add it explicitly with no data.
  wf.add_edge(wf.task_by_name("split"), wf.task_by_name("merge"), 0.0);
  const cloud::Platform platform = cloud::Platform::ec2();
  for (const scheduling::Strategy& s : scheduling::paper_strategies()) {
    const sim::Schedule schedule = s.scheduler->run(wf, platform);
    sim::validate_or_throw(wf, schedule, platform);
  }
}

// Scenario seed is the only source of randomness: two runners with equal
// seeds produce bitwise-equal grids.
TEST(Metamorphic, GridIsAPureFunctionOfTheSeed) {
  workload::ScenarioConfig cfg;
  cfg.seed = 777;
  const exp::ExperimentRunner r1(cloud::Platform::ec2(), cfg);
  const exp::ExperimentRunner r2(cloud::Platform::ec2(), cfg);
  const auto a = r1.run_all(exp::paper_workflows()[1],
                            workload::ScenarioKind::pareto);
  const auto b = r2.run_all(exp::paper_workflows()[1],
                            workload::ScenarioKind::pareto);
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_DOUBLE_EQ(a[i].metrics.makespan, b[i].metrics.makespan);
    EXPECT_EQ(a[i].metrics.total_cost, b[i].metrics.total_cost);
  }
}

}  // namespace
}  // namespace cloudwf
