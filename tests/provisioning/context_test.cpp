// Direct tests for PlacementContext's arithmetic (est_on, est_on_new,
// vm_hosts_level_of, largest_predecessor) — the shared substrate every
// scheduler builds on.
#include <gtest/gtest.h>

#include "provisioning/policy.hpp"

namespace cloudwf::provisioning {
namespace {

using cloud::InstanceSize;

struct Fixture {
  dag::Workflow wf{"ctx"};
  cloud::Platform platform = cloud::Platform::ec2();
  dag::TaskId a, b, c;

  Fixture() {
    a = wf.add_task("a", 1000.0, /*output GB=*/1.0);
    b = wf.add_task("b", 500.0);
    c = wf.add_task("c", 250.0);
    wf.add_edge(a, b);
    wf.add_edge(a, c);
  }
};

TEST(PlacementContext, EstOnSameVmHasNoTransfer) {
  Fixture f;
  sim::Schedule schedule(f.wf);
  PlacementContext ctx(f.wf, schedule, f.platform, InstanceSize::small);
  const cloud::VmId vm = schedule.rent(InstanceSize::small, 0);
  schedule.assign(f.a, vm, 0.0, 1000.0);
  // b on the producer's VM: ready exactly at a's finish.
  EXPECT_DOUBLE_EQ(ctx.est_on(f.b, schedule.pool().vm(vm)), 1000.0);
}

TEST(PlacementContext, EstOnOtherVmAddsTransfer) {
  Fixture f;
  sim::Schedule schedule(f.wf);
  PlacementContext ctx(f.wf, schedule, f.platform, InstanceSize::small);
  const cloud::VmId v0 = schedule.rent(InstanceSize::small, 0);
  const cloud::VmId v1 = schedule.rent(InstanceSize::small, 0);
  schedule.assign(f.a, v0, 0.0, 1000.0);
  // 1 GB over 0.125 GB/s + intra-region latency.
  const util::Seconds expected =
      1000.0 + 1.0 / 0.125 + f.platform.transfer().intra_region_latency;
  EXPECT_DOUBLE_EQ(ctx.est_on(f.b, schedule.pool().vm(v1)), expected);
}

TEST(PlacementContext, EstOnNewMatchesFreshVm) {
  Fixture f;
  sim::Schedule schedule(f.wf);
  PlacementContext ctx(f.wf, schedule, f.platform, InstanceSize::small);
  const cloud::VmId v0 = schedule.rent(InstanceSize::small, 0);
  schedule.assign(f.a, v0, 0.0, 1000.0);
  const util::Seconds est_new = ctx.est_on_new(f.b);
  const cloud::VmId v1 = schedule.rent(InstanceSize::small, 0);
  EXPECT_DOUBLE_EQ(est_new, ctx.est_on(f.b, schedule.pool().vm(v1)));
}

TEST(PlacementContext, EstRespectsVmAvailability) {
  Fixture f;
  sim::Schedule schedule(f.wf);
  PlacementContext ctx(f.wf, schedule, f.platform, InstanceSize::small);
  const cloud::VmId v0 = schedule.rent(InstanceSize::small, 0);
  const cloud::VmId v1 = schedule.rent(InstanceSize::small, 0);
  schedule.assign(f.a, v0, 0.0, 1000.0);
  // Occupy v1 until 3250 s; b's data is ready long before, so its est on v1
  // is availability-bound.
  schedule.assign(f.c, v1, 3000.0, 3250.0);
  const util::Seconds est = ctx.est_on(f.b, schedule.pool().vm(v1));
  EXPECT_DOUBLE_EQ(est, 3250.0);
}

TEST(PlacementContext, EstThrowsOnUnassignedPredecessor) {
  Fixture f;
  sim::Schedule schedule(f.wf);
  PlacementContext ctx(f.wf, schedule, f.platform, InstanceSize::small);
  const cloud::VmId v0 = schedule.rent(InstanceSize::small, 0);
  EXPECT_THROW((void)ctx.est_on(f.b, schedule.pool().vm(v0)), std::logic_error);
}

TEST(PlacementContext, VmHostsLevelOf) {
  Fixture f;
  sim::Schedule schedule(f.wf);
  PlacementContext ctx(f.wf, schedule, f.platform, InstanceSize::small);
  const cloud::VmId v0 = schedule.rent(InstanceSize::small, 0);
  schedule.assign(f.a, v0, 0.0, 1000.0);
  schedule.assign(f.b, v0, 1000.0, 1500.0);
  const cloud::Vm& vm = schedule.pool().vm(v0);
  // b and c share level 1: the VM hosts c's level (via b).
  EXPECT_TRUE(ctx.vm_hosts_level_of(vm, f.c));
  // a is alone at level 0; a fresh VM hosts neither level.
  const cloud::VmId v1 = schedule.rent(InstanceSize::small, 0);
  EXPECT_FALSE(ctx.vm_hosts_level_of(schedule.pool().vm(v1), f.c));
}

TEST(PlacementContext, LargestPredecessorTieBreaksOnLowerId) {
  dag::Workflow wf("tie");
  const dag::TaskId p1 = wf.add_task("p1", 100.0);
  const dag::TaskId p2 = wf.add_task("p2", 100.0);
  const dag::TaskId t = wf.add_task("t", 1.0);
  wf.add_edge(p1, t);
  wf.add_edge(p2, t);
  sim::Schedule schedule(wf);
  const cloud::Platform platform = cloud::Platform::ec2();
  PlacementContext ctx(wf, schedule, platform, InstanceSize::small);
  EXPECT_EQ(ctx.largest_predecessor(t), p1);
}

// A surviving AllPar candidate whose busy time stays put while its paid
// window moves: a near-zero-work task of another level lands on it after
// its window has closed, so the VM opens a new session and can host a task
// that its old window could not. The candidate index must re-key the VM
// from that zero-growth append, or the NotExceed query would skip it.
TEST(PlacementContext, ParallelReuseFollowsAWindowMovedByAZeroGrowthAppend) {
  struct ScanVerification {
    ScanVerification() { PlacementContext::set_scan_verification(true); }
    ~ScanVerification() { PlacementContext::set_scan_verification(false); }
  } const verify;
  dag::Workflow wf("window");
  const dag::TaskId e0 = wf.add_task("e0", 100.0, 0.0);
  const dag::TaskId e1 = wf.add_task("e1", 4000.0, 0.0);
  const dag::TaskId z = wf.add_task("z", 1e-15, 0.0);  // level 0 too
  const dag::TaskId t1 = wf.add_task("t1", 3400.0, 0.0);
  const dag::TaskId t2 = wf.add_task("t2", 3400.0, 0.0);
  wf.add_edge(e1, t1, 0.0);
  wf.add_edge(e1, t2, 0.0);
  const cloud::Platform platform = cloud::Platform::ec2();
  sim::Schedule schedule(wf);
  PlacementContext ctx(wf, schedule, platform, InstanceSize::small);
  const cloud::VmPool& pool = ctx.pool();  // const: keeps the epoch

  const cloud::VmId v0 = schedule.rent(InstanceSize::small, 0);
  const cloud::VmId v1 = schedule.rent(InstanceSize::small, 0);
  schedule.assign(e0, v0, 0.0, 100.0);    // paid window [0, 3600)
  schedule.assign(e1, v1, 0.0, 4000.0);   // paid window [0, 7200)

  // t1 is ready at 4000: v1 would end at 7400 (a 3rd BTU) and v0's window
  // has closed (a new session). The query builds the level-1 snapshot.
  EXPECT_EQ(ctx.best_parallel_reuse(t1, /*exceed=*/false), cloud::kInvalidVm);
  const cloud::VmId v2 = schedule.rent(InstanceSize::small, 0);
  schedule.assign(t1, v2, 4000.0, 7400.0);  // hosts level 1 from now on

  // z starts v0's second session at 5000 without growing its busy time.
  const util::Seconds busy = pool.vm(v0).busy_time();
  schedule.assign(z, v0, 5000.0, 5000.0 + ctx.exec_time(z, InstanceSize::small));
  ASSERT_EQ(pool.vm(v0).busy_time(), busy);
  ASSERT_EQ(pool.vm(v0).session_count(), 2u);
  ASSERT_EQ(pool.vm(v0).last_session().paid_end(), 8600.0);

  // t2 fits v0's new window: [5000, 8400) ends before 8600.
  EXPECT_EQ(ctx.best_parallel_reuse(t2, /*exceed=*/false), v0);
}

}  // namespace
}  // namespace cloudwf::provisioning
