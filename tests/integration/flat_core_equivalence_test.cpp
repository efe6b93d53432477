// Flat-core equivalence: with the VmPool's index-verification mode on, every
// reuse_order() query cross-checks the incrementally maintained index
// against a fresh (busy desc, id asc) sort and throws on divergence. Running
// the full legend over every paper workflow under that mode certifies the
// indexed hot path on exactly the query streams the schedulers produce.
// A second pass pins the upgrade schedulers' scratch retimer to the plain
// rebuild-from-scratch evaluation it replaced.
#include <gtest/gtest.h>

#include <vector>

#include "cloud/vm.hpp"
#include "dag/generators.hpp"
#include "dag/science.hpp"
#include "exp/experiment.hpp"
#include "provisioning/policy.hpp"
#include "scheduling/factory.hpp"
#include "scheduling/upgrade.hpp"
#include "sim/metrics.hpp"
#include "util/rng.hpp"

namespace cloudwf {
namespace {

struct IndexVerificationGuard {
  IndexVerificationGuard() { cloud::VmPool::set_index_verification(true); }
  ~IndexVerificationGuard() { cloud::VmPool::set_index_verification(false); }
};

struct ScanVerificationGuard {
  ScanVerificationGuard() {
    provisioning::PlacementContext::set_scan_verification(true);
  }
  ~ScanVerificationGuard() {
    provisioning::PlacementContext::set_scan_verification(false);
  }
};

TEST(FlatCoreEquivalence, AllStrategiesOnAllWorkflowsUnderIndexVerification) {
  const IndexVerificationGuard guard;
  const exp::ExperimentRunner runner;
  const std::vector<scheduling::Strategy> strategies =
      scheduling::paper_strategies();

  for (const dag::Workflow& structure : exp::paper_workflows()) {
    const std::vector<exp::RunResult> all =
        runner.run_all(structure, workload::ScenarioKind::pareto);
    ASSERT_EQ(all.size(), strategies.size());
    for (std::size_t i = 0; i < strategies.size(); ++i) {
      // run_one recomputes the reference per call; agreement here also pins
      // run_all's hoisted reference to the per-run recompute.
      const exp::RunResult one =
          runner.run_one(strategies[i], structure, workload::ScenarioKind::pareto);
      const std::string at = strategies[i].label + " on " + structure.name();
      EXPECT_EQ(one.metrics.makespan, all[i].metrics.makespan) << at;
      EXPECT_EQ(one.metrics.total_cost, all[i].metrics.total_cost) << at;
      EXPECT_EQ(one.metrics.total_idle, all[i].metrics.total_idle) << at;
      EXPECT_EQ(one.relative.gain_pct, all[i].relative.gain_pct) << at;
      EXPECT_EQ(one.relative.loss_pct, all[i].relative.loss_pct) << at;
    }
  }
}

// The AllPar candidate index (PlacementContext::best_parallel_reuse) and
// AllPar1LnS's bounded chain walk (place_chain) must return exactly the
// linear reuse_order() walk's first admissible VM on every query the
// schedulers issue. Scan-verification mode cross-checks each answer in
// place; the paper workflows cover the level-by-level query
// stream and the wide random DAGs cover HEFT's level-interleaved one. The
// Pegasus families at ~500 tasks rent hundreds of VMs, most of them past
// their paid window for any given task, so they exercise the paid-window
// skip on long walks; worst-case runtimes shift which VMs it rules out.
// montage and sipht at 4,000 tasks rent the most VMs of the five shapes
// (about 1,400 and 2,000 already at 2,000 tasks).
TEST(FlatCoreEquivalence, AllParCandidateHeapMatchesLinearScan) {
  const ScanVerificationGuard guard;
  const exp::ExperimentRunner runner;

  for (const dag::Workflow& structure : exp::paper_workflows())
    (void)runner.run_all(structure, workload::ScenarioKind::pareto);

  for (const dag::science::Family family : dag::science::kAllFamilies) {
    const dag::Workflow wf = dag::science::scaled(family, 500);
    for (const auto kind : {workload::ScenarioKind::pareto,
                            workload::ScenarioKind::worst_case})
      (void)runner.run_all(wf, kind);
  }
  for (const dag::science::Family family :
       {dag::science::Family::montage, dag::science::Family::sipht}) {
    const dag::Workflow wf = dag::science::scaled(family, 4000);
    for (const auto kind : {workload::ScenarioKind::pareto,
                            workload::ScenarioKind::worst_case})
      (void)runner.run_all(wf, kind);
  }

  for (const std::uint64_t seed : {11ull, 12ull, 13ull}) {
    util::Rng rng(seed);
    dag::generators::LayeredConfig cfg;
    cfg.levels = 8;
    cfg.max_width = 24;  // wide levels: the scan's quadratic regime
    dag::Workflow wf = dag::generators::random_layered(cfg, rng);
    for (const auto kind : {workload::ScenarioKind::pareto,
                            workload::ScenarioKind::data_intensive})
      (void)runner.run_all(wf, kind);
  }
}

TEST(FlatCoreEquivalence, RetimerMatchesFreshRebuildEvaluation) {
  const exp::ExperimentRunner runner;
  for (const dag::Workflow& structure : exp::paper_workflows()) {
    const dag::Workflow wf =
        runner.materialize(structure, workload::ScenarioKind::pareto);
    scheduling::OneVmPerTaskRetimer retimer(wf, runner.platform());

    // Walk a ladder of size vectors of the shape the upgrade loops explore:
    // uniform baselines plus single-task bumps.
    std::vector<cloud::InstanceSize> sizes(wf.task_count(),
                                           cloud::InstanceSize::small);
    const auto check = [&] {
      const sim::ScheduleMetrics fresh =
          scheduling::metrics_one_vm_per_task(wf, runner.platform(), sizes);
      const sim::ScheduleMetrics cached = retimer.metrics(sizes);
      EXPECT_EQ(cached.makespan, fresh.makespan) << wf.name();
      EXPECT_EQ(cached.total_cost, fresh.total_cost) << wf.name();
      EXPECT_EQ(cached.total_idle, fresh.total_idle) << wf.name();
      EXPECT_EQ(cached.total_btus, fresh.total_btus) << wf.name();
      EXPECT_EQ(retimer.cost(sizes), fresh.total_cost) << wf.name();
    };

    check();
    for (cloud::InstanceSize s :
         {cloud::InstanceSize::medium, cloud::InstanceSize::xlarge}) {
      for (std::size_t t = 0; t < wf.task_count(); t += 3) {
        sizes[t] = s;
        check();
      }
    }
  }
}

}  // namespace
}  // namespace cloudwf
