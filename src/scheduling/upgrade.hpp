// Shared substrate of the dynamic schedulers (CPA-Eager, Gain):
// a one-VM-per-task schedule whose per-task instance sizes can be upgraded
// and retimed cheaply.
//
// Both algorithms "rely on the OneVMperTask provisioning method during the
// initial schedule" (Sect. III-B), so every task owns its VM, retiming after
// a size change is one topological sweep, and a schedule is fully described
// by the per-task size vector.
#pragma once

#include <memory>
#include <queue>
#include <span>
#include <vector>

#include "cloud/platform.hpp"
#include "dag/workflow.hpp"
#include "sim/metrics.hpp"
#include "sim/schedule.hpp"

namespace cloudwf::scheduling {

/// Builds the one-VM-per-task schedule for the given per-task sizes:
/// VM i hosts task i; start(t) = max over preds of finish(p) + transfer.
/// sizes.size() must equal wf.task_count().
[[nodiscard]] sim::Schedule retime_one_vm_per_task(
    const dag::Workflow& wf, const cloud::Platform& platform,
    std::span<const cloud::InstanceSize> sizes);

/// Metrics of retime_one_vm_per_task(...) without keeping the schedule.
[[nodiscard]] sim::ScheduleMetrics metrics_one_vm_per_task(
    const dag::Workflow& wf, const cloud::Platform& platform,
    std::span<const cloud::InstanceSize> sizes);

/// Reusable scratch for the upgrade loops: CPA-Eager and GAIN evaluate
/// metrics_one_vm_per_task once per candidate upgrade, which used to build
/// a fresh Schedule (N VM rentals, N placement vectors) every time. The
/// retimer keeps one scratch schedule and a per-edge transfer-time memo —
/// after warm-up a candidate evaluation allocates nothing. Results are
/// bit-identical to metrics_one_vm_per_task.
class OneVmPerTaskRetimer {
 public:
  OneVmPerTaskRetimer(const dag::Workflow& wf, const cloud::Platform& platform);

  /// Retimes the scratch schedule for `sizes` and returns its metrics.
  [[nodiscard]] sim::ScheduleMetrics metrics(
      std::span<const cloud::InstanceSize> sizes);

  /// Total cost of the retimed schedule for `sizes`. Exactly
  /// metrics(sizes).total_cost — the scratch is single-region, so egress is
  /// identically zero — without computing the rest of the metrics. This is
  /// the budget test CPA-Eager and GAIN run once per candidate.
  [[nodiscard]] util::Money cost(std::span<const cloud::InstanceSize> sizes);

  /// Incremental cost interface for the upgrade loops, which change one
  /// task's size per candidate. cost(sizes) is a full O(V + E) retime; at
  /// 10^4 tasks that one call per candidate is the quadratic corner that
  /// dominated the whole 19-strategy sweep. prime() runs the same pass once
  /// and keeps each task's start/finish plus its VM's exact cost
  /// contribution; set_size() then re-times only the tasks whose inputs can
  /// have changed — the resized task, its direct successors (their inbound
  /// transfer time depends on the producer's size), and transitively every
  /// task whose finish time actually moved (bitwise cutoff).
  ///
  /// Every cached number is produced by the same arithmetic the full retime
  /// runs — the same transfer memo slots, the same exec_time calls, the
  /// same (est + exec) - est session span fed to btus_for — and the total
  /// is a sum of integer micro-dollars, so set_size() returns exactly what
  /// cost() would on the updated vector, not an approximation of it.
  void prime(std::span<const cloud::InstanceSize> sizes);
  [[nodiscard]] util::Money primed_cost() const noexcept { return total_; }
  /// Per-task finish times of the primed state: bitwise the assignment
  /// ends retime_one_vm_per_task gives for the current size vector.
  [[nodiscard]] std::span<const util::Seconds> primed_finish() const noexcept {
    return end_;
  }

  /// Changes `task` to `size` and returns the new total cost. The change
  /// commits: call again with the previous size to revert (the recomputed
  /// slice lands on bitwise-identical state — times are a pure function of
  /// the size vector).
  util::Money set_size(dag::TaskId task, cloud::InstanceSize size);

 private:
  void retime(std::span<const cloud::InstanceSize> sizes);
  /// Recomputes est_/end_ of `t`. `resized` rebuilds `t`'s whole arrival
  /// tree (every inbound transfer is keyed on its own size); otherwise the
  /// tree's leaves are already current.
  void retime_task(dag::TaskId t, bool resized);
  /// Arrival of `t`'s k-th inbound edge: the producer's finish + transfer.
  [[nodiscard]] util::Seconds arrival(dag::TaskId t, std::size_t k);
  /// Re-reads `u`'s arrival in the tree of every successor.
  void refresh_out_arrivals(dag::TaskId u);

  const dag::Workflow* wf_;
  const cloud::Platform* platform_;
  std::shared_ptr<const dag::StructureCache> structure_;
  sim::Schedule scratch_;
  std::vector<util::Seconds> transfer_;  // per (edge slot, size pair); <0 empty

  // Incremental state, valid after prime().
  std::vector<cloud::InstanceSize> inc_sizes_;
  std::vector<util::Seconds> est_, end_;    // per-task start / finish
  std::vector<util::Money> contrib_;        // per-VM rental cost
  util::Money total_;
  std::vector<std::size_t> topo_pos_;       // task -> position in topo order
  std::vector<char> queued_;
  // Arrival max-trees: task t with d predecessors owns the 2d entries of
  // arrival_tree_ from 2 * pred_edge_slot(t) (leaves at [d, 2d), node
  // i = max(2i, 2i + 1), root at 1). A moved predecessor costs O(log d)
  // instead of a re-read of all d — sipht's PatserConcat has one
  // predecessor per upstream branch and is retimed once per candidate
  // upstream of it. A maximum of doubles is exact, so the root is bitwise
  // the sequential maximum over the predecessors.
  std::vector<util::Seconds> arrival_tree_;
  std::priority_queue<std::size_t, std::vector<std::size_t>,
                      std::greater<std::size_t>>
      dirty_;  // pending recomputes, drained in topological order
};

}  // namespace cloudwf::scheduling
