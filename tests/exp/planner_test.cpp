#include <gtest/gtest.h>

#include "exp/planner.hpp"

namespace cloudwf::exp {
namespace {

const ExperimentRunner& runner() {
  static const ExperimentRunner r;
  return r;
}

TEST(Planner, DeadlineOnlyPicksCheapestMeetingIt) {
  // Generous deadline: everything qualifies, cheapest overall wins.
  PlanConstraints loose;
  loose.deadline = 1e9;
  loose.include_baselines = false;
  const PlanOutcome outcome = plan(runner(), paper_workflows()[0], loose);
  EXPECT_TRUE(outcome.feasible);
  for (const RunResult& r : outcome.evaluated)
    EXPECT_LE(outcome.metrics.total_cost, r.metrics.total_cost) << r.strategy;
}

TEST(Planner, BudgetOnlyPicksFastestWithinIt) {
  PlanConstraints c;
  c.budget = util::Money::from_dollars(1.0);
  c.include_baselines = false;
  const PlanOutcome outcome = plan(runner(), paper_workflows()[0], c);
  ASSERT_TRUE(outcome.feasible);
  EXPECT_LE(outcome.metrics.total_cost, *c.budget);
  for (const RunResult& r : outcome.evaluated) {
    if (r.metrics.total_cost <= *c.budget) {
      EXPECT_LE(outcome.metrics.makespan, r.metrics.makespan + 1e-6)
          << r.strategy;
    }
  }
}

TEST(Planner, BothConstraintsRespected) {
  PlanConstraints c;
  c.budget = util::Money::from_dollars(2.0);
  c.deadline = 8000.0;
  const PlanOutcome outcome = plan(runner(), paper_workflows()[0], c);
  ASSERT_TRUE(outcome.feasible);
  EXPECT_LE(outcome.metrics.total_cost, *c.budget);
  EXPECT_LE(outcome.metrics.makespan, *c.deadline + 1e-6);
}

TEST(Planner, ImpossibleConstraintsReportInfeasible) {
  PlanConstraints c;
  c.deadline = 1.0;  // nothing finishes montage in a second
  const PlanOutcome outcome = plan(runner(), paper_workflows()[0], c);
  EXPECT_FALSE(outcome.feasible);
  EXPECT_FALSE(outcome.strategy.empty());  // best effort still named
  // The best-effort pick is the fastest available.
  for (const RunResult& r : outcome.evaluated)
    EXPECT_LE(outcome.metrics.makespan, r.metrics.makespan + 1e-6);
}

TEST(Planner, NoConstraintsGivesBalancedPick) {
  PlanConstraints c;
  c.include_baselines = false;
  const PlanOutcome outcome = plan(runner(), paper_workflows()[1], c);
  EXPECT_TRUE(outcome.feasible);
  EXPECT_EQ(plan_table(outcome, c).rows(), outcome.evaluated.size());
}

TEST(Planner, BaselinesWidenThePortfolio) {
  PlanConstraints with;
  with.deadline = 1e9;
  PlanConstraints without = with;
  without.include_baselines = false;
  const PlanOutcome a = plan(runner(), paper_workflows()[3], with);
  const PlanOutcome b = plan(runner(), paper_workflows()[3], without);
  EXPECT_GT(a.evaluated.size(), b.evaluated.size());
  EXPECT_EQ(b.evaluated.size(), 19u);
}

}  // namespace
}  // namespace cloudwf::exp
