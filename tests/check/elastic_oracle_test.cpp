// Oracle coverage for the elastic runtime on a cold-start platform: its
// provisioning path answers boot_delay per size/region, and the boot
// invariant re-derives the same bound, so its schedules must audit clean.
#include <gtest/gtest.h>

#include "check/oracle.hpp"
#include "dag/builders.hpp"
#include "exp/scenario_env.hpp"
#include "sim/elastic.hpp"
#include "workload/scenario.hpp"

namespace cloudwf::check {
namespace {

dag::Workflow pareto_montage() {
  workload::ScenarioConfig cfg;
  return workload::apply_scenario(dag::builders::montage24(), cfg);
}

cloud::Platform env_platform(workload::ScenarioKind kind) {
  workload::ScenarioConfig cfg;
  cfg.kind = kind;
  return exp::scenario_platform(cloud::Platform::ec2(), cfg);
}

TEST(SpotElasticOracle, ElasticScheduleAuditsCleanUnderColdStarts) {
  const cloud::Platform platform =
      env_platform(workload::ScenarioKind::cold_start);
  const dag::Workflow wf = pareto_montage();
  const sim::ElasticResult result = sim::run_elastic(wf, platform);
  const OracleReport report = check_schedule(wf, result.schedule, platform);
  EXPECT_TRUE(report.ok()) << report.to_string();
  // The pool really paid the provisioning delay: nothing starts before the
  // smallest possible cold boot.
  for (const dag::Task& t : wf.tasks())
    EXPECT_GE(result.schedule.assignment(t.id).start, 300.0);
}

}  // namespace
}  // namespace cloudwf::check
