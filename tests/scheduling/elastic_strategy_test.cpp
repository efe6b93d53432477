#include "scheduling/elastic_strategy.hpp"

#include <gtest/gtest.h>

#include "dag/builders.hpp"
#include "exp/catalog.hpp"
#include "scheduling/baselines.hpp"
#include "sim/validator.hpp"
#include "workload/scenario.hpp"

namespace cloudwf::scheduling {
namespace {

dag::Workflow pareto(const dag::Workflow& base) {
  workload::ScenarioConfig cfg;
  return workload::apply_scenario(base, cfg);
}

TEST(ElasticStrategy, WrapsTheRuntimeFaithfully) {
  const cloud::Platform platform = cloud::Platform::ec2();
  const dag::Workflow wf = pareto(dag::builders::map_reduce());
  const ElasticScheduler sched;
  EXPECT_EQ(sched.name(), "Elastic-s");
  const sim::Schedule a = sched.run(wf, platform);
  const sim::ElasticResult direct = sim::run_elastic(wf, platform);
  EXPECT_NEAR(a.makespan(), direct.makespan, 1e-9);
  sim::validate_or_throw(wf, a, platform);
}

TEST(ElasticStrategy, RegisteredAsABaseline) {
  bool found = false;
  for (const Strategy& s : baseline_strategies())
    if (s.label == "Elastic-s") found = true;
  EXPECT_TRUE(found);
  EXPECT_NO_THROW((void)exp::catalog::strategy("Elastic-s"));
}

TEST(ElasticStrategy, SizeParameterizes) {
  const Strategy medium = elastic_strategy(cloud::InstanceSize::medium);
  EXPECT_EQ(medium.label, "Elastic-m");
  const cloud::Platform platform = cloud::Platform::ec2();
  const dag::Workflow wf = pareto(dag::builders::cstem());
  const util::Seconds ms_m = medium.scheduler->run(wf, platform).makespan();
  const util::Seconds ms_s =
      elastic_strategy(cloud::InstanceSize::small).scheduler->run(wf, platform)
          .makespan();
  EXPECT_LT(ms_m, ms_s);  // faster instances, same runtime logic
}

}  // namespace
}  // namespace cloudwf::scheduling
