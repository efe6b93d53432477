#include "exp/experiment.hpp"

#include <gtest/gtest.h>

#include "exp/report.hpp"

namespace cloudwf::exp {
namespace {

TEST(PaperWorkflows, FourInPresentationOrder) {
  const auto wfs = paper_workflows();
  ASSERT_EQ(wfs.size(), 4u);
  EXPECT_EQ(wfs[0].name(), "montage");
  EXPECT_EQ(wfs[1].name(), "cstem");
  EXPECT_EQ(wfs[2].name(), "mapreduce");
  EXPECT_EQ(wfs[3].name(), "sequential");
}

TEST(ExperimentRunner, ReferenceSitsAtOrigin) {
  const ExperimentRunner runner;
  const dag::Workflow montage = paper_workflows()[0];
  const RunResult ref = runner.run_one(scheduling::reference_strategy(), montage,
                                       workload::ScenarioKind::pareto);
  EXPECT_NEAR(ref.relative.gain_pct, 0.0, 1e-9);
  EXPECT_NEAR(ref.relative.loss_pct, 0.0, 1e-9);
}

TEST(ExperimentRunner, RunAllCoversAllStrategies) {
  const ExperimentRunner runner;
  const auto results = runner.run_all(paper_workflows()[1],  // cstem
                                      workload::ScenarioKind::best_case);
  EXPECT_EQ(results.size(), 19u);
  for (const RunResult& r : results) {
    EXPECT_EQ(r.workflow, "cstem");
    EXPECT_EQ(r.scenario, workload::ScenarioKind::best_case);
    EXPECT_GT(r.metrics.makespan, 0.0) << r.strategy;
    EXPECT_GT(r.metrics.total_cost, util::Money{}) << r.strategy;
  }
}

TEST(ExperimentRunner, MaterializeIsDeterministic) {
  const ExperimentRunner runner;
  const dag::Workflow a =
      runner.materialize(paper_workflows()[0], workload::ScenarioKind::pareto);
  const dag::Workflow b =
      runner.materialize(paper_workflows()[0], workload::ScenarioKind::pareto);
  for (const dag::Task& t : a.tasks())
    EXPECT_DOUBLE_EQ(t.work, b.task(t.id).work);
}

TEST(ExperimentRunner, ParallelGridMatchesSerialExactly) {
  const ExperimentRunner runner;
  const auto serial = runner.run_grid();
  const auto parallel = runner.run_grid_parallel();
  ASSERT_EQ(serial.size(), parallel.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(serial[i].strategy, parallel[i].strategy);
    EXPECT_EQ(serial[i].workflow, parallel[i].workflow);
    EXPECT_EQ(serial[i].scenario, parallel[i].scenario);
    EXPECT_DOUBLE_EQ(serial[i].metrics.makespan, parallel[i].metrics.makespan);
    EXPECT_EQ(serial[i].metrics.total_cost, parallel[i].metrics.total_cost);
    EXPECT_DOUBLE_EQ(serial[i].relative.gain_pct, parallel[i].relative.gain_pct);
  }
}

TEST(Report, TableAndCsvCoverEveryRun) {
  const ExperimentRunner runner;
  const auto results = runner.run_all(paper_workflows()[3],  // sequential: fast
                                      workload::ScenarioKind::best_case);
  const util::TextTable table = results_table(results);
  EXPECT_EQ(table.rows(), results.size());
  const std::string csv = results_csv(results);
  // Header + one line per run.
  EXPECT_EQ(static_cast<std::size_t>(
                std::count(csv.begin(), csv.end(), '\n')),
            results.size() + 1);
}

}  // namespace
}  // namespace cloudwf::exp
