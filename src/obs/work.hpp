// Exact work counters: how much inner work an algorithm did, as integers
// that do not drift with the host's speed. A wall-clock time says a path got
// slower; a count says which loop did more steps, and a count that grows
// faster than the input is a complexity regression even on a noisy host.
//
// Always on, with no option: each counted operation adds its total once to
// a thread-local slot (one relaxed load and store, no shared cache line),
// and work_total() merges every thread's slot on read, including those of
// threads that have already exited.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string_view>

namespace cloudwf::obs {

enum class Work : std::uint8_t {
  /// Entries the VmPool reuse index wrote into a new position: relinked
  /// tree nodes on an insert or a reorder, every entry of a rebuild. The
  /// O(log V) descent that finds a position is not counted.
  reuse_slots_moved = 0,
  /// VMs that a NotExceed AllPar reuse query tested
  /// (PlacementContext::best_parallel_reuse); VMs its index skips are not.
  reuse_vms_examined = 1,
  /// Workflow::validate() calls that ran their checks; a call answered by
  /// the workflow's kept verdict is not counted.
  workflow_checks = 2,
};
inline constexpr std::size_t kWorkCount = 3;

[[nodiscard]] std::string_view name_of(Work w) noexcept;

/// Adds `n` to the calling thread's counter for `w`. Call once per
/// operation with its total, not once per inner step.
void add_work(Work w, std::uint64_t n) noexcept;

/// `w` summed over every thread that ever added to it.
[[nodiscard]] std::uint64_t work_total(Work w) noexcept;

}  // namespace cloudwf::obs
