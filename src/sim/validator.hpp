// Independent feasibility checker for schedules.
//
// Deliberately re-derives every constraint from the raw data (it does not
// trust Vm/Schedule invariants), so scheduler bugs cannot hide behind the
// container's own bookkeeping. Used pervasively by the tests and available
// to library users.
#pragma once

#include <string>
#include <vector>

#include "cloud/platform.hpp"
#include "dag/workflow.hpp"
#include "sim/schedule.hpp"

namespace cloudwf::sim {

/// Checks a schedule and returns human-readable violation descriptions
/// (empty means feasible):
///  - every task assigned exactly once, to an existing VM;
///  - task duration equals work / speedup of its VM's size;
///  - placements on one VM do not overlap, in start order: a timeline
///    whose starts strictly ascend is read in place, and only any other
///    timeline is copied and sorted first;
///  - the task table and the VM timelines agree;
///  - precedence: start(t) >= finish(p) + transfer_time(p -> t) for every
///    edge (p, t), with transfer evaluated on the assigned endpoints;
///  - no negative times.
[[nodiscard]] std::vector<std::string> validate(const dag::Workflow& wf,
                                                const Schedule& schedule,
                                                const cloud::Platform& platform);

/// Throws std::logic_error listing all violations if the schedule is infeasible.
void validate_or_throw(const dag::Workflow& wf, const Schedule& schedule,
                       const cloud::Platform& platform);

}  // namespace cloudwf::sim
