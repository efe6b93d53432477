// Task: one node of a workflow DAG.
#pragma once

#include <cstdint>
#include <limits>
#include <string>

#include "util/units.hpp"

namespace cloudwf::dag {

/// Dense task index within one Workflow. Tasks are never removed, so a
/// TaskId is stable for the lifetime of its workflow.
using TaskId = std::uint32_t;

inline constexpr TaskId kInvalidTask = std::numeric_limits<TaskId>::max();
static_assert(kInvalidTask == 0xffffffffu);

struct Task {
  TaskId id = kInvalidTask;

  /// Human-readable name (e.g. "mProjectPP_3"); unique within a workflow.
  std::string name;

  /// Reference execution time: seconds on the baseline small instance
  /// (speed-up 1.0). An instance with speed-up s runs the task in work/s.
  util::Seconds work = 1.0;

  /// Size of this task's output available to each successor, in GB.
  /// Per-edge overrides take precedence (see Workflow::add_edge).
  util::Gigabytes output_data = 0.0;
};

}  // namespace cloudwf::dag
