#include "sim/validator.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

namespace cloudwf::sim {
namespace {

struct Fixture {
  dag::Workflow wf{"v"};
  cloud::Platform platform = cloud::Platform::ec2();

  Fixture() {
    const dag::TaskId a = wf.add_task("a", 100.0);
    const dag::TaskId b = wf.add_task("b", 200.0);
    wf.add_edge(a, b);
  }
};

TEST(Validator, AcceptsFeasibleSchedule) {
  Fixture f;
  Schedule s(f.wf);
  const cloud::VmId vm = s.rent(cloud::InstanceSize::small, 0);
  s.assign(0, vm, 0.0, 100.0);
  s.assign(1, vm, 100.0, 300.0);
  EXPECT_TRUE(validate(f.wf, s, f.platform).empty());
  EXPECT_NO_THROW(validate_or_throw(f.wf, s, f.platform));
}

TEST(Validator, FlagsUnassignedTask) {
  Fixture f;
  Schedule s(f.wf);
  const cloud::VmId vm = s.rent(cloud::InstanceSize::small, 0);
  s.assign(0, vm, 0.0, 100.0);
  const auto issues = validate(f.wf, s, f.platform);
  ASSERT_FALSE(issues.empty());
  EXPECT_NE(issues[0].find("unassigned"), std::string::npos);
  EXPECT_THROW(validate_or_throw(f.wf, s, f.platform), std::logic_error);
}

TEST(Validator, FlagsWrongDuration) {
  Fixture f;
  Schedule s(f.wf);
  const cloud::VmId vm = s.rent(cloud::InstanceSize::small, 0);
  s.assign(0, vm, 0.0, 100.0);
  s.assign(1, vm, 100.0, 250.0);  // 150 s instead of 200 s on small
  const auto issues = validate(f.wf, s, f.platform);
  ASSERT_FALSE(issues.empty());
  EXPECT_NE(issues[0].find("work/speedup"), std::string::npos);
}

TEST(Validator, DurationHonorsSpeedup) {
  Fixture f;
  Schedule s(f.wf);
  const cloud::VmId vm = s.rent(cloud::InstanceSize::medium, 0);
  // On medium (speedup 1.6): 100/1.6 = 62.5, then 200/1.6 = 125.
  s.assign(0, vm, 0.0, 62.5);
  s.assign(1, vm, 62.5, 187.5);
  EXPECT_TRUE(validate(f.wf, s, f.platform).empty());
}

TEST(Validator, FlagsPrecedenceViolation) {
  Fixture f;
  Schedule s(f.wf);
  const cloud::VmId v0 = s.rent(cloud::InstanceSize::small, 0);
  const cloud::VmId v1 = s.rent(cloud::InstanceSize::small, 0);
  s.assign(0, v0, 0.0, 100.0);
  s.assign(1, v1, 50.0, 250.0);  // starts before its predecessor finishes
  const auto issues = validate(f.wf, s, f.platform);
  ASSERT_FALSE(issues.empty());
  EXPECT_NE(issues[0].find("starts at"), std::string::npos);
}

TEST(Validator, FlagsMissingTransferSlack) {
  Fixture f;
  f.wf.task(0).output_data = 1.0;  // 1 GB must flow a -> b
  Schedule s(f.wf);
  const cloud::VmId v0 = s.rent(cloud::InstanceSize::small, 0);
  const cloud::VmId v1 = s.rent(cloud::InstanceSize::small, 0);
  s.assign(0, v0, 0.0, 100.0);
  // Back-to-back on different VMs: no time for the ~8 s transfer.
  s.assign(1, v1, 100.0, 300.0);
  EXPECT_FALSE(validate(f.wf, s, f.platform).empty());

  // Same scenario with the transfer slack is accepted.
  Schedule ok(f.wf);
  const cloud::VmId w0 = ok.rent(cloud::InstanceSize::small, 0);
  const cloud::VmId w1 = ok.rent(cloud::InstanceSize::small, 0);
  ok.assign(0, w0, 0.0, 100.0);
  ok.assign(1, w1, 110.0, 310.0);
  EXPECT_TRUE(validate(f.wf, ok, f.platform).empty());
}

TEST(Validator, SameVmNeedsNoTransferSlack) {
  Fixture f;
  f.wf.task(0).output_data = 50.0;  // big, but stays on the VM
  Schedule s(f.wf);
  const cloud::VmId vm = s.rent(cloud::InstanceSize::small, 0);
  s.assign(0, vm, 0.0, 100.0);
  s.assign(1, vm, 100.0, 300.0);
  EXPECT_TRUE(validate(f.wf, s, f.platform).empty());
}

TEST(Validator, SizeMismatchReported) {
  Fixture f;
  const Schedule s(3);  // wrong task count
  const auto issues = validate(f.wf, s, f.platform);
  ASSERT_EQ(issues.size(), 1u);
  EXPECT_NE(issues[0].find("sized for"), std::string::npos);
}

/// The overlap complaints the validator has always given one VM: copy its
/// placements, std::sort them by start and compare neighbours.
std::vector<std::string> sorted_walk_overlaps(const dag::Workflow& wf,
                                              const cloud::Vm& vm) {
  std::vector<cloud::Placement> ps(vm.placements());
  std::sort(ps.begin(), ps.end(),
            [](const cloud::Placement& x, const cloud::Placement& y) {
              return x.start < y.start;
            });
  const auto describe = [&wf](dag::TaskId t) {
    return "task '" + wf.task(t).name + "' (#" + std::to_string(t) + ")";
  };
  std::vector<std::string> out;
  for (std::size_t i = 1; i < ps.size(); ++i)
    if (util::time_gt(ps[i - 1].end, ps[i].start))
      out.push_back("VM " + std::to_string(vm.id()) + ": " +
                    describe(ps[i - 1].task) + " overlaps " +
                    describe(ps[i].task));
  return out;
}

// Vm::place lets a placement start up to the time slack before the previous
// one ends, so a timeline can hold equal starts, and a start below an
// earlier one. Such a timeline is not strictly ascending, and the validator
// sorts a copy of it, as it always has.
TEST(Validator, EqualStartsTakeTheSortedWalk) {
  dag::Workflow wf("ties");
  (void)wf.add_task("a", 1e-7);
  (void)wf.add_task("b", 1e-7);
  (void)wf.add_task("c", 100.0);
  const cloud::Platform platform = cloud::Platform::ec2();
  Schedule s(wf);
  const cloud::VmId vm = s.rent(cloud::InstanceSize::small, 0);
  s.assign(0, vm, 5e-7, 6e-7);
  s.assign(1, vm, 5e-7, 6e-7);  // the same start as 'a'
  s.assign(2, vm, 0.0, 100.0);  // within the slack of 'b''s end
  const std::vector<std::string> issues = validate(wf, s, platform);
  EXPECT_EQ(issues, std::vector<std::string>{
                        "VM 0: task 'c' (#2) overlaps task 'a' (#0)"});
  EXPECT_EQ(issues, sorted_walk_overlaps(wf, s.pool().vm(vm)));
}

// Only a strictly ascending timeline has one sorted order. With many equal
// starts std::sort may reorder them (libstdc++'s introsort moves the long
// placement here forward), so a walk in place could miss an overlap the
// sorted walk reports.
TEST(Validator, NonAscendingTimelineMatchesTheSortedWalk) {
  constexpr dag::TaskId kTiny = 20;
  dag::Workflow wf("crowd");
  for (dag::TaskId t = 0; t < kTiny; ++t)
    (void)wf.add_task("tiny" + std::to_string(t), 1e-7);
  (void)wf.add_task("long", 100.0);
  const cloud::Platform platform = cloud::Platform::ec2();
  Schedule s(wf);
  const cloud::VmId vm = s.rent(cloud::InstanceSize::small, 0);
  for (dag::TaskId t = 0; t < kTiny; ++t) s.assign(t, vm, 0.0, 1e-7);
  s.assign(kTiny, vm, 0.0, 100.0);
  EXPECT_EQ(validate(wf, s, platform), sorted_walk_overlaps(wf, s.pool().vm(vm)));
}

}  // namespace
}  // namespace cloudwf::sim
