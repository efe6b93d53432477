#include "check/oracle.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>

#include "cloud/billing.hpp"
#include "dag/science.hpp"
#include "exp/experiment.hpp"
#include "scheduling/factory.hpp"

namespace cloudwf::check {
namespace {

bool has_violation(const OracleReport& report, const std::string& invariant) {
  return std::any_of(report.violations.begin(), report.violations.end(),
                     [&invariant](const Violation& v) {
                       return v.invariant == invariant;
                     });
}

struct Fixture {
  dag::Workflow wf{"oracle"};
  cloud::Platform platform = cloud::Platform::ec2();

  Fixture() {
    const dag::TaskId a = wf.add_task("a", 100.0);
    const dag::TaskId b = wf.add_task("b", 200.0);
    wf.add_edge(a, b);
  }
};

TEST(Oracle, AcceptsFeasibleSchedule) {
  Fixture f;
  sim::Schedule s(f.wf);
  const cloud::VmId vm = s.rent(cloud::InstanceSize::small, 0);
  s.assign(0, vm, 0.0, 100.0);
  s.assign(1, vm, 100.0, 300.0);
  const OracleReport report = check_schedule(f.wf, s, f.platform);
  EXPECT_TRUE(report.ok()) << report.to_string();
  EXPECT_NO_THROW(check_schedule_or_throw(f.wf, s, f.platform));
}

TEST(Oracle, FlagsUnassignedTask) {
  Fixture f;
  sim::Schedule s(f.wf);
  const cloud::VmId vm = s.rent(cloud::InstanceSize::small, 0);
  s.assign(0, vm, 0.0, 100.0);
  const OracleReport report = check_schedule(f.wf, s, f.platform);
  EXPECT_TRUE(has_violation(report, "assignment"));
  EXPECT_THROW(check_schedule_or_throw(f.wf, s, f.platform), std::logic_error);
}

TEST(Oracle, FlagsWrongDuration) {
  Fixture f;
  sim::Schedule s(f.wf);
  const cloud::VmId vm = s.rent(cloud::InstanceSize::small, 0);
  s.assign(0, vm, 0.0, 100.0);
  s.assign(1, vm, 100.0, 250.0);  // 150 s instead of 200 s on small
  EXPECT_TRUE(has_violation(check_schedule(f.wf, s, f.platform), "duration"));
}

TEST(Oracle, FlagsPrecedenceViolation) {
  Fixture f;
  sim::Schedule s(f.wf);
  const cloud::VmId v0 = s.rent(cloud::InstanceSize::small, 0);
  const cloud::VmId v1 = s.rent(cloud::InstanceSize::small, 0);
  s.assign(0, v0, 0.0, 100.0);
  s.assign(1, v1, 50.0, 250.0);  // starts before its predecessor finishes
  EXPECT_TRUE(has_violation(check_schedule(f.wf, s, f.platform), "precedence"));
}

TEST(Oracle, FlagsTimelineTableMismatch) {
  Fixture f;
  sim::Schedule s(f.wf);
  const cloud::VmId vm = s.rent(cloud::InstanceSize::small, 0);
  s.assign(0, vm, 0.0, 100.0);
  s.assign(1, vm, 100.0, 300.0);
  s.pool().vm(vm).clear();  // timeline wiped; the task table still points here
  EXPECT_TRUE(
      has_violation(check_schedule(f.wf, s, f.platform), "table-timeline"));
}

TEST(Oracle, FlagsTaskStartingBeforeBoot) {
  Fixture f;
  f.platform.set_boot_time(60.0);
  sim::Schedule s(f.wf);
  const cloud::VmId vm = s.rent(cloud::InstanceSize::small, 0);
  s.assign(0, vm, 0.0, 100.0);  // boots at 60 s, starts at 0
  s.assign(1, vm, 100.0, 300.0);
  EXPECT_TRUE(has_violation(check_schedule(f.wf, s, f.platform), "boot"));

  sim::Schedule ok(f.wf);
  const cloud::VmId w = ok.rent(cloud::InstanceSize::small, 0);
  ok.assign(0, w, 60.0, 160.0);
  ok.assign(1, w, 160.0, 360.0);
  EXPECT_TRUE(check_schedule(f.wf, ok, f.platform).ok());
}

TEST(Oracle, BillingRecomputeAgreesAcrossSessions) {
  // Two placements more than a paid BTU apart: the VM is released at the
  // boundary and re-rented, i.e. two sessions of one BTU each — cheaper than
  // one stretched three-BTU session. The oracle must re-derive exactly that.
  Fixture f;
  dag::Workflow wf{"sessions"};
  const dag::TaskId a = wf.add_task("a", 100.0);
  (void)wf.add_task("b", 200.0);
  (void)a;
  sim::Schedule s(wf);
  const cloud::VmId vm = s.rent(cloud::InstanceSize::small, 0);
  s.assign(0, vm, 0.0, 100.0);
  s.assign(1, vm, 8000.0, 8200.0);  // past paid_end = 3600 s
  ASSERT_EQ(s.pool().vm(static_cast<cloud::VmId>(vm)).sessions().size(), 2u);
  const OracleReport report = check_schedule(wf, s, f.platform);
  EXPECT_TRUE(report.ok()) << report.to_string();
}

TEST(Oracle, BillingExactBtuBoundaryAgrees) {
  dag::Workflow wf{"boundary"};
  (void)wf.add_task("a", 3600.0);  // exactly one BTU on small
  cloud::Platform platform = cloud::Platform::ec2();
  sim::Schedule s(wf);
  const cloud::VmId vm = s.rent(cloud::InstanceSize::small, 0);
  s.assign(0, vm, 0.0, 3600.0);
  const OracleReport report = check_schedule(wf, s, platform);
  EXPECT_TRUE(report.ok()) << report.to_string();
}

TEST(Oracle, StretchedPlacementIsBilledByItsSpan) {
  // A one-BTU task held 210 s past its planned run (as a retried attempt
  // would be): the pool bills the stretched span — two BTUs — exactly as
  // cloud::rental_cost prices it, and the oracle's independent recompute
  // agrees. Only the duration invariant breaks.
  dag::Workflow wf{"stretched"};
  (void)wf.add_task("t", 3600.0);
  const cloud::Platform platform = cloud::Platform::ec2();
  const util::Seconds span = 3600.0 + 7 * 30.0;
  sim::Schedule s(wf);
  const cloud::VmId vm = s.rent(cloud::InstanceSize::small, 0);
  s.assign(0, vm, 0.0, span);
  EXPECT_EQ(s.pool().rental_cost(platform.regions()),
            cloud::rental_cost(span, cloud::InstanceSize::small,
                               platform.region(0)));
  EXPECT_EQ(s.pool().vm(vm).btus(), cloud::btus_for(span));
  EXPECT_EQ(cloud::btus_for(span), 2);

  const OracleReport report = check_schedule(wf, s, platform);
  EXPECT_TRUE(has_violation(report, "duration"));
  EXPECT_FALSE(has_violation(report, "billing")) << report.to_string();
}

TEST(Oracle, CleanStrategySchedulesPassEveryCheck) {
  // All 19 production strategies on a materialized paper workflow: the
  // oracle (including billing + metrics recompute) must find nothing.
  exp::ExperimentRunner runner;
  const std::vector<dag::Workflow> workflows = exp::paper_workflows();
  const dag::Workflow wf =
      runner.materialize(workflows.front(), workload::ScenarioKind::pareto);
  for (const scheduling::Strategy& strategy : scheduling::paper_strategies()) {
    const sim::Schedule s = strategy.scheduler->run(wf, runner.platform());
    const OracleReport report = check_schedule(wf, s, runner.platform());
    EXPECT_TRUE(report.ok())
        << strategy.label << ":\n" << report.to_string();
  }
}

TEST(Oracle, ScalesNearLinearlyToTenThousandPlacements) {
  // Every oracle pass (assignment, duration, overlap, precedence, boot,
  // billing, metrics recompute) walks placements, edges, or VMs linearly.
  // Guard that contract at the 10^4 scale this repo now targets: checking a
  // 10,004-placement schedule must stay comfortably sub-linear-in-seconds.
  // The bound is deliberately loose (sanitizer builds run this too); the
  // real regression gate for throughput lives in bench_large_dag.
  exp::ExperimentRunner runner;
  const dag::Workflow wf = dag::science::scaled(dag::science::Family::epigenomics, 10000);
  ASSERT_GE(wf.task_count(), 10000u);
  const scheduling::Strategy strategy =
      scheduling::strategy_by_label("AllParExceed-s");
  const sim::Schedule s = strategy.scheduler->run(wf, runner.platform());

  const auto start = std::chrono::steady_clock::now();
  const OracleReport report = check_schedule(wf, s, runner.platform());
  const auto elapsed = std::chrono::duration_cast<std::chrono::milliseconds>(
      std::chrono::steady_clock::now() - start);
  EXPECT_TRUE(report.ok()) << report.to_string();
  EXPECT_LT(elapsed.count(), 15000) << "oracle took " << elapsed.count()
                                    << " ms on a 10^4-placement schedule";
}

TEST(Oracle, ReportSerializesMachineReadably) {
  Fixture f;
  sim::Schedule s(f.wf);
  const cloud::VmId vm = s.rent(cloud::InstanceSize::small, 0);
  s.assign(0, vm, 0.0, 100.0);
  const OracleReport report = check_schedule(f.wf, s, f.platform);
  ASSERT_FALSE(report.ok());

  const util::Json j = report.to_json();
  EXPECT_EQ(j.find("workflow")->as_string(), "oracle");
  EXPECT_FALSE(j.find("ok")->as_bool());
  const util::Json::Array& violations = j.find("violations")->as_array();
  ASSERT_FALSE(violations.empty());
  EXPECT_EQ(violations[0].find("invariant")->as_string(), "assignment");
  EXPECT_FALSE(violations[0].find("detail")->as_string().empty());

  // Round-trips through the strict parser.
  EXPECT_NO_THROW((void)util::Json::parse(j.dump()));
}

}  // namespace
}  // namespace cloudwf::check
