// One (workflow, scenario, seed) group of strategy cells, evaluated through
// the public calls ExperimentRunner::run_many makes internally, each under
// its own span: materialize, structure, the OneVMperTask-s reference, then
// per strategy the scheduler, sim::validate_or_throw and
// sim::compute_metrics. The results are bitwise those of run_many; the
// sweep and service replays assert it against the program's own output.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "cloud/platform.hpp"
#include "dag/workflow.hpp"
#include "exp/experiment.hpp"
#include "scheduling/factory.hpp"
#include "spans.hpp"
#include "workload/scenario.hpp"

namespace cloudwf_bench {

/// Oracle findings over the schedules of audited groups.
struct Audit {
  std::uint64_t schedules = 0;
  std::uint64_t violations = 0;
  std::string first;  ///< first violation report, for the error message
};

/// Evaluates `strategies` on one group. With `audit`, every strategy's
/// schedule also goes through check::check_schedule (outside any span).
[[nodiscard]] std::vector<cloudwf::exp::RunResult> evaluate_group(
    const cloudwf::dag::Workflow& structure,
    cloudwf::workload::ScenarioKind scenario, std::uint64_t seed,
    const std::vector<cloudwf::scheduling::Strategy>& strategies,
    const cloudwf::cloud::Platform& platform, Spans& spans, std::uint64_t op,
    Audit* audit = nullptr);

/// Strategies for a list of labels, in order.
[[nodiscard]] std::vector<cloudwf::scheduling::Strategy> strategies_for(
    const std::vector<std::string>& labels);

}  // namespace cloudwf_bench
