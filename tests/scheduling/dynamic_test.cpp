// Tests for the budgeted upgrade schedulers: CPA-Eager and Gain, plus the
// retiming substrate they share.
#include <gtest/gtest.h>

#include "dag/builders.hpp"
#include "dag/science.hpp"
#include "scheduling/cpa_eager.hpp"
#include "scheduling/gain.hpp"
#include "scheduling/heft.hpp"
#include "scheduling/upgrade.hpp"
#include "sim/metrics.hpp"
#include "sim/validator.hpp"
#include "util/rng.hpp"
#include "workload/scenario.hpp"

namespace cloudwf::scheduling {
namespace {

using cloud::InstanceSize;

dag::Workflow pareto(const dag::Workflow& base, std::uint64_t seed = 0x1db2013) {
  workload::ScenarioConfig cfg;
  cfg.seed = seed;
  return workload::apply_scenario(base, cfg);
}

dag::Workflow data_intensive(const dag::Workflow& base) {
  workload::ScenarioConfig cfg;
  cfg.kind = workload::ScenarioKind::data_intensive;
  cfg.seed = 0x1db2013;
  return workload::apply_scenario(base, cfg);
}

sim::ScheduleMetrics seed_metrics(const dag::Workflow& wf,
                                  const cloud::Platform& platform) {
  const std::vector<InstanceSize> sizes(wf.task_count(), InstanceSize::small);
  return metrics_one_vm_per_task(wf, platform, sizes);
}

TEST(Retime, MatchesHeftOneVmPerTaskSeed) {
  // With one VM per task there is no resource contention, so the retiming
  // sweep must reproduce HEFT+OneVMperTask exactly (same times, same cost).
  const cloud::Platform platform = cloud::Platform::ec2();
  for (const dag::Workflow& base :
       {dag::builders::montage24(), dag::builders::cstem(),
        dag::builders::map_reduce(), dag::builders::sequential_chain()}) {
    const dag::Workflow wf = pareto(base);
    const std::vector<InstanceSize> sizes(wf.task_count(), InstanceSize::small);
    const sim::Schedule retimed = retime_one_vm_per_task(wf, platform, sizes);
    sim::validate_or_throw(wf, retimed, platform);

    const HeftScheduler heft(provisioning::ProvisioningKind::one_vm_per_task,
                             InstanceSize::small);
    const sim::Schedule seed = heft.run(wf, platform);
    EXPECT_NEAR(retimed.makespan(), seed.makespan(), 1e-6) << wf.name();
    EXPECT_EQ(sim::compute_metrics(wf, retimed, platform).total_cost,
              sim::compute_metrics(wf, seed, platform).total_cost)
        << wf.name();
  }
}

TEST(Retime, SizeVectorMismatchRejected) {
  const dag::Workflow wf = pareto(dag::builders::cstem());
  const std::vector<InstanceSize> wrong(3, InstanceSize::small);
  EXPECT_THROW(
      (void)retime_one_vm_per_task(wf, cloud::Platform::ec2(), wrong),
      std::invalid_argument);
}

TEST(Retime, IncrementalSetSizeMatchesFullRetimeBitwise) {
  // The contract the upgrade loops lean on: after prime(), every set_size()
  // returns exactly what a full cost(sizes) recompute would — at exact
  // integer micro-dollars, no tolerance — including reverts.
  // Every fourth step resizes the widest task (a rebuild of its whole
  // arrival tree); the other steps resize random tasks, whose moves reach
  // each successor's tree as single-leaf updates. sipht and cybershake at
  // ~600 tasks have fan-ins in the hundreds, so their widest trees are many
  // levels deep. They run data-intensive: with multi-GB edges an inbound
  // transfer depends on both endpoint sizes (the slower link), so a resize
  // moves every arrival it touches.
  const cloud::Platform platform = cloud::Platform::ec2();
  for (const dag::Workflow& wf :
       {pareto(dag::builders::montage24()), pareto(dag::builders::cstem()),
        pareto(dag::science::scaled(dag::science::Family::epigenomics, 200)),
        data_intensive(dag::science::scaled(dag::science::Family::sipht, 600)),
        data_intensive(
            dag::science::scaled(dag::science::Family::cybershake, 600))}) {
    std::vector<InstanceSize> sizes(wf.task_count(), InstanceSize::small);

    dag::TaskId widest = 0;
    for (const dag::Task& t : wf.tasks())
      if (wf.predecessors(t.id).size() > wf.predecessors(widest).size())
        widest = t.id;

    OneVmPerTaskRetimer incremental(wf, platform);
    incremental.prime(sizes);
    OneVmPerTaskRetimer full(wf, platform);
    EXPECT_EQ(incremental.primed_cost(), full.cost(sizes)) << wf.name();

    // Costs alone can hide a wrong start time inside a BTU; the finish
    // times pin every task.
    const auto expect_same_finishes = [&](int step) {
      const sim::Schedule fresh = retime_one_vm_per_task(wf, platform, sizes);
      for (const dag::Task& t : wf.tasks())
        ASSERT_EQ(incremental.primed_finish()[t.id], fresh.assignment(t.id).end)
            << wf.name() << " step " << step << " task " << t.id;
    };

    util::Rng rng(0xB17);
    for (int step = 0; step < 60; ++step) {
      auto task = static_cast<dag::TaskId>(rng.below(wf.task_count()));
      if (step % 4 == 3) task = widest;
      const auto size = cloud::kAllSizes[rng.below(cloud::kAllSizes.size())];
      const InstanceSize previous = sizes[task];
      sizes[task] = size;
      const util::Money inc = incremental.set_size(task, size);
      EXPECT_EQ(inc, full.cost(sizes))
          << wf.name() << " step " << step << " task " << task;
      expect_same_finishes(step);
      if (step % 3 == 2) {  // revert must land on bitwise-identical state
        sizes[task] = previous;
        EXPECT_EQ(incremental.set_size(task, previous), full.cost(sizes))
            << wf.name() << " revert at step " << step;
        expect_same_finishes(step);
      }
    }

    // Every producer of the widest task on the fastest link: the widest
    // task's own size is then the slower end of every inbound transfer, so
    // each resize of it moves all of its arrivals at once.
    for (const dag::TaskId p : wf.predecessors(widest)) {
      sizes[p] = InstanceSize::xlarge;
      (void)incremental.set_size(p, InstanceSize::xlarge);
    }
    EXPECT_EQ(incremental.set_size(widest, sizes[widest]), full.cost(sizes))
        << wf.name();
    for (const InstanceSize size : cloud::kAllSizes) {
      sizes[widest] = size;
      EXPECT_EQ(incremental.set_size(widest, size), full.cost(sizes))
          << wf.name() << " widest task at " << cloud::name_of(size);
      expect_same_finishes(-1);
    }
  }
}

TEST(CpaEager, RespectsBudgetAndImprovesMakespan) {
  const cloud::Platform platform = cloud::Platform::ec2();
  for (const dag::Workflow& base :
       {dag::builders::montage24(), dag::builders::cstem(),
        dag::builders::map_reduce(), dag::builders::sequential_chain()}) {
    const dag::Workflow wf = pareto(base);
    const sim::ScheduleMetrics seed = seed_metrics(wf, platform);

    const CpaEagerScheduler cpa;  // paper budget factor: 2x
    const sim::Schedule s = cpa.run(wf, platform);
    sim::validate_or_throw(wf, s, platform);
    const sim::ScheduleMetrics m = sim::compute_metrics(wf, s, platform);

    EXPECT_LE(m.total_cost, seed.total_cost.scaled(2.0)) << wf.name();
    EXPECT_LE(m.makespan, seed.makespan + 1e-6) << wf.name();
  }
}

TEST(CpaEager, UpgradesCriticalPathFirst) {
  // On a sequential chain the whole workflow is the critical path; with a
  // generous budget every task should end up beyond small.
  const cloud::Platform platform = cloud::Platform::ec2();
  const dag::Workflow wf = pareto(dag::builders::sequential_chain());
  const CpaEagerScheduler cpa(/*budget_factor=*/100.0);
  const sim::Schedule s = cpa.run(wf, platform);
  for (const cloud::Vm& vm : s.pool().vms())
    EXPECT_EQ(vm.size(), InstanceSize::xlarge);
}

TEST(CpaEager, BudgetFactorOneKeepsSeed) {
  // With the budget pinned at the seed cost, upgrades that add cost are all
  // rejected — the makespan equals the seed's unless free upgrades exist.
  const cloud::Platform platform = cloud::Platform::ec2();
  const dag::Workflow wf = pareto(dag::builders::cstem());
  const sim::ScheduleMetrics seed = seed_metrics(wf, platform);
  const CpaEagerScheduler cpa(1.0);
  const sim::ScheduleMetrics m =
      sim::compute_metrics(wf, cpa.run(wf, platform), platform);
  EXPECT_LE(m.total_cost, seed.total_cost);
}

TEST(CpaEager, RejectsBadBudget) {
  EXPECT_THROW(CpaEagerScheduler(0.5), std::invalid_argument);
}

TEST(Gain, RespectsBudgetAndImprovesMakespan) {
  const cloud::Platform platform = cloud::Platform::ec2();
  for (const dag::Workflow& base :
       {dag::builders::montage24(), dag::builders::cstem(),
        dag::builders::map_reduce(), dag::builders::sequential_chain()}) {
    const dag::Workflow wf = pareto(base);
    const sim::ScheduleMetrics seed = seed_metrics(wf, platform);

    const GainScheduler gain;  // paper budget factor: 4x
    const sim::Schedule s = gain.run(wf, platform);
    sim::validate_or_throw(wf, s, platform);
    const sim::ScheduleMetrics m = sim::compute_metrics(wf, s, platform);

    EXPECT_LE(m.total_cost, seed.total_cost.scaled(4.0)) << wf.name();
    EXPECT_LE(m.makespan, seed.makespan + 1e-6) << wf.name();
  }
}

TEST(Gain, PicksFreeUpgradesFirst) {
  // A 3600 s task costs 1 small BTU ($0.08). On medium it runs 2250 s — one
  // medium BTU ($0.16). On xlarge 1333 s at $0.64. The gain matrix favours
  // medium (dt/dc = 1350/0.08) over large/xlarge; with a tight budget (x2)
  // exactly the medium upgrade fits.
  dag::Workflow wf("single");
  (void)wf.add_task("t", 3600.0);
  const cloud::Platform platform = cloud::Platform::ec2();
  const GainScheduler gain(2.0);
  const sim::Schedule s = gain.run(wf, platform);
  EXPECT_EQ(s.pool().vm(0).size(), InstanceSize::medium);
}

TEST(Gain, StableUnderRepetition) {
  const cloud::Platform platform = cloud::Platform::ec2();
  const dag::Workflow wf = pareto(dag::builders::montage24());
  const GainScheduler gain;
  const sim::Schedule a = gain.run(wf, platform);
  const sim::Schedule b = gain.run(wf, platform);
  for (dag::TaskId t = 0; t < wf.task_count(); ++t) {
    EXPECT_EQ(a.pool().vm(a.assignment(t).vm).size(),
              b.pool().vm(b.assignment(t).vm).size());
  }
}

TEST(Gain, RejectsBadBudget) {
  EXPECT_THROW(GainScheduler(0.0), std::invalid_argument);
}

TEST(DynamicSchedulers, GainSpendsMoreBudgetThanCpaEager) {
  // Gain's 4x budget upper-bounds CPA-Eager's 2x: its cost may exceed
  // CPA-Eager's but never the looser cap.
  const cloud::Platform platform = cloud::Platform::ec2();
  const dag::Workflow wf = pareto(dag::builders::montage24());
  const sim::ScheduleMetrics seed = seed_metrics(wf, platform);
  const auto cost = [&](const Scheduler& s) {
    return sim::compute_metrics(wf, s.run(wf, platform), platform).total_cost;
  };
  EXPECT_LE(cost(CpaEagerScheduler()), seed.total_cost.scaled(2.0));
  EXPECT_LE(cost(GainScheduler()), seed.total_cost.scaled(4.0));
}

}  // namespace
}  // namespace cloudwf::scheduling
