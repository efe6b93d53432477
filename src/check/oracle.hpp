// Schedule-invariant oracle: the complete, independent feasibility +
// accounting checker behind the correctness harness.
//
// sim/validator answers "is this schedule structurally feasible" with
// human-readable strings; the oracle re-derives *every* platform-model
// invariant the paper's comparison rests on (Sect. II/III) from raw
// placements and prices, and reports violations machine-readably so the
// differential engine, the fuzz drivers and CI can gate on them:
//
//   assignment      every task assigned exactly once, to an existing VM;
//   duration        task duration == work / speedup(size) on its VM;
//   table-timeline  the task table and the VM placement timelines agree;
//   overlap         placements on one VM never overlap (exclusive VMs);
//   precedence      start(t) >= finish(p) + transfer(p -> t) on the
//                   assigned endpoints, for every edge;
//   boot            no task starts before the platform's boot delay;
//   billing         BTU cost recomputed from raw placements (session
//                   segmentation + Table II prices) == the pool's answer;
//   metrics         compute_metrics' aggregates == independent recomputes
//                   (makespan, busy/idle/paid seconds, BTUs, egress, total).
//
// None of the checks consult Vm::Session, VmPool's indices or the
// StructureCache — a bug in any of those caches cannot hide from the oracle.
#pragma once

#include <string>
#include <vector>

#include "cloud/platform.hpp"
#include "dag/workflow.hpp"
#include "sim/metrics.hpp"
#include "sim/schedule.hpp"
#include "util/json.hpp"

namespace cloudwf::check {

/// One broken invariant. `invariant` is a stable machine-readable code from
/// the list above; `detail` is the human-readable specifics.
struct Violation {
  std::string invariant;
  std::string detail;

  [[nodiscard]] util::Json to_json() const;
};

/// Result of running the oracle over one (workflow, schedule) pair.
struct OracleReport {
  std::string workflow;
  std::vector<Violation> violations;

  [[nodiscard]] bool ok() const noexcept { return violations.empty(); }
  [[nodiscard]] util::Json to_json() const;

  /// "invariant: detail" lines joined with newlines (empty when ok).
  [[nodiscard]] std::string to_string() const;
};

/// Runs every invariant check against `schedule`. Never throws on an
/// infeasible schedule — infeasibility is the report's payload. (It does
/// propagate std::bad_alloc and the like.)
[[nodiscard]] OracleReport check_schedule(const dag::Workflow& wf,
                                          const sim::Schedule& schedule,
                                          const cloud::Platform& platform);

/// Throws std::logic_error with the report text if any invariant is broken.
void check_schedule_or_throw(const dag::Workflow& wf,
                             const sim::Schedule& schedule,
                             const cloud::Platform& platform);

}  // namespace cloudwf::check
