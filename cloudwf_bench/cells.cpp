#include "cells.hpp"

#include <utility>

#include "check/oracle.hpp"
#include "sim/metrics.hpp"
#include "sim/validator.hpp"

namespace cloudwf_bench {

namespace {

/// Span of a strategy's scheduler, by algorithm family: the nine HEFT
/// series, the six level-scheduler series, CPA-Eager, GAIN, and the two
/// AllPar1LnS variants.
const char* scheduler_span(const std::string& label) {
  if (label == "CPA-Eager") return "scheduling.cpa_eager";
  if (label == "GAIN") return "scheduling.gain";
  if (label.rfind("AllPar1LnS", 0) == 0) return "scheduling.allpar1lns";
  if (label.rfind("AllPar", 0) == 0) return "scheduling.level";
  return "scheduling.heft";
}

}  // namespace

std::vector<cloudwf::exp::RunResult> evaluate_group(
    const cloudwf::dag::Workflow& structure,
    cloudwf::workload::ScenarioKind scenario, std::uint64_t seed,
    const std::vector<cloudwf::scheduling::Strategy>& strategies,
    const cloudwf::cloud::Platform& platform, Spans& spans, std::uint64_t op,
    Audit* audit) {
  namespace exp = cloudwf::exp;
  namespace sim = cloudwf::sim;

  cloudwf::workload::ScenarioConfig cfg;
  cfg.seed = seed;
  const exp::ExperimentRunner runner(platform, cfg,
                                     exp::ParallelConfig::serial());

  const auto prepared = [&] {
    const auto s = spans.scope("workload.materialize", op);
    return std::pair{runner.materialize(structure, scenario),
                     runner.scenario_platform(scenario)};
  }();
  const cloudwf::dag::Workflow& materialized = prepared.first;
  const cloudwf::cloud::Platform& env = prepared.second;
  {
    const auto s = spans.scope("dag.structure", op);
    (void)materialized.structure();
  }
  sim::ScheduleMetrics reference;
  {
    const auto s = spans.scope("scheduling.reference", op);
    const cloudwf::scheduling::Strategy ref =
        cloudwf::scheduling::reference_strategy();
    const sim::Schedule schedule = ref.scheduler->run(materialized, env);
    reference = sim::compute_metrics(materialized, schedule, env);
  }

  std::vector<exp::RunResult> results;
  results.reserve(strategies.size());
  for (const cloudwf::scheduling::Strategy& strategy : strategies) {
    sim::Schedule schedule = [&] {
      const auto s = spans.scope(scheduler_span(strategy.label), op);
      return strategy.scheduler->run(materialized, env);
    }();
    {
      const auto s = spans.scope("sim.validate", op);
      sim::validate_or_throw(materialized, schedule, env);
    }
    exp::RunResult r;
    r.strategy = strategy.label;
    r.workflow = structure.name();
    r.scenario = scenario;
    {
      const auto s = spans.scope("sim.metrics", op);
      r.metrics = sim::compute_metrics(materialized, schedule, env);
    }
    r.relative = sim::relative_to_reference(r.metrics, reference);
    results.push_back(std::move(r));

    if (audit != nullptr) {
      const cloudwf::check::OracleReport report =
          cloudwf::check::check_schedule(materialized, schedule, env);
      ++audit->schedules;
      if (!report.ok()) {
        audit->violations += report.violations.size();
        if (audit->first.empty())
          audit->first = structure.name() + " " + strategy.label + ": " +
                         report.to_string();
      }
    }
  }
  return results;
}

std::vector<cloudwf::scheduling::Strategy> strategies_for(
    const std::vector<std::string>& labels) {
  std::vector<cloudwf::scheduling::Strategy> out;
  out.reserve(labels.size());
  for (const std::string& label : labels)
    out.push_back(cloudwf::scheduling::strategy_by_label(label));
  return out;
}

}  // namespace cloudwf_bench
