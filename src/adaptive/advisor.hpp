// Adaptive strategy advisor — the paper's conclusion ("these results open
// the way for adaptive scheduling where the SA can be adjusted based on
// workflow properties and user goals") made executable: Table V as a
// decision procedure over WorkflowFeatures.
#pragma once

#include <string>
#include <vector>

#include "adaptive/features.hpp"
#include "scheduling/factory.hpp"

namespace cloudwf::adaptive {

enum class Objective { savings, gain, balanced };

[[nodiscard]] constexpr std::string_view name_of(Objective o) noexcept {
  switch (o) {
    case Objective::savings:
      return "savings";
    case Objective::gain:
      return "gain";
    case Objective::balanced:
      return "balanced";
  }
  return "?";
}

struct Advice {
  std::string strategy_label;  ///< usable with exp::catalog::strategy
  std::string rationale;       ///< which Table V rule fired and why
};

/// Table V, row by (parallelism class, interdependency), column by objective,
/// refined by task-length/heterogeneity the way the paper's cells are.
[[nodiscard]] Advice advise(const WorkflowFeatures& features, Objective objective);

/// Convenience: features + advice + ready-to-run strategy in one call.
[[nodiscard]] scheduling::Strategy recommend(const dag::Workflow& wf,
                                             Objective objective);

}  // namespace cloudwf::adaptive
