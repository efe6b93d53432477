// Factory for the paper's strategy series — the 19 legend entries of Fig. 4:
//
//   {OneVMperTask, StartParNotExceed, StartParExceed}-{s,m,l}  (HEFT),
//   {AllParExceed, AllParNotExceed}-{s,m,l}                    (level sched.),
//   CPA-Eager, GAIN, AllPar1LnS, AllPar1LnSDyn                 (dynamic).
//
// Labels follow the paper's plots: the homogeneous series are named after
// their provisioning + instance suffix (HEFT is implied), the dynamic ones
// carry their algorithm name.
#pragma once

#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "scheduling/scheduler.hpp"

namespace cloudwf::scheduling {

struct Strategy {
  std::string label;                    ///< the paper's legend label
  std::shared_ptr<const Scheduler> scheduler;
};

/// All 19 paper strategies, in the legend order of Fig. 4.
[[nodiscard]] std::vector<Strategy> paper_strategies();

/// The reference strategy of Fig. 4: HEFT + OneVMperTask on small instances
/// (label "OneVMperTask-s").
[[nodiscard]] Strategy reference_strategy();

/// Builds one strategy from its paper label (e.g. "AllParExceed-m",
/// "CPA-Eager"). Throws std::invalid_argument for unknown labels. Labels
/// from outside the program go through exp::catalog::strategy instead,
/// which also knows the baselines and shares one instance of each.
[[nodiscard]] Strategy strategy_by_label(std::string_view label);

/// All labels accepted by strategy_by_label, in legend order.
[[nodiscard]] std::vector<std::string> paper_strategy_labels();

}  // namespace cloudwf::scheduling
