// VM provisioning policies (Sect. III-A): given a ready task, decide whether
// to reuse an existing VM or rent a new one, under a Billing-Time-Unit rule.
//
// The five paper policies:
//   OneVMperTask      — a new VM for every task;
//   StartParNotExceed — new VMs only for entry tasks; others reuse the VM
//                       with the largest accumulated execution time, unless
//                       that would add a BTU (then rent);
//   StartParExceed    — like the previous, but BTU growth never rents;
//   AllParNotExceed   — each parallel task gets its own VM (existing or
//                       new, never sharing a VM with a same-level task);
//                       rent when the level outgrows the pool or reuse
//                       would add a BTU; sequential tasks reuse the
//                       largest-execution-time VM;
//   AllParExceed      — like the previous, but BTU growth never rents.
#pragma once

#include <array>
#include <cstdint>
#include <limits>
#include <memory>
#include <optional>
#include <string_view>
#include <utility>
#include <vector>

#include "cloud/platform.hpp"
#include "dag/structure_cache.hpp"
#include "dag/workflow.hpp"
#include "sim/schedule.hpp"

namespace cloudwf::provisioning {

enum class ProvisioningKind : std::uint8_t {
  one_vm_per_task = 0,
  start_par_not_exceed = 1,
  start_par_exceed = 2,
  all_par_not_exceed = 3,
  all_par_exceed = 4,
};

[[nodiscard]] constexpr std::string_view name_of(ProvisioningKind k) noexcept {
  constexpr std::array<std::string_view, 5> names = {
      "OneVMperTask", "StartParNotExceed", "StartParExceed", "AllParNotExceed",
      "AllParExceed"};
  return names[static_cast<std::size_t>(k)];
}

/// Everything a policy may consult while placing one task, plus the
/// earliest-start-time arithmetic shared by all schedulers.
///
/// Flat-core hot path: the context shares the workflow's StructureCache
/// (levels, CSR adjacency with resolved edge data, largest predecessors)
/// instead of recomputing them per run, memoizes per-(task,size) execution
/// times, and answers vm_hosts_level_of from an incrementally maintained
/// per-VM level occupancy instead of scanning every placement. All answers
/// are bit-identical to the direct computations they replace.
class PlacementContext {
 public:
  PlacementContext(const dag::Workflow& wf, sim::Schedule& schedule,
                   const cloud::Platform& platform, cloud::InstanceSize vm_size);

  [[nodiscard]] const dag::Workflow& workflow() const noexcept { return *wf_; }
  [[nodiscard]] sim::Schedule& schedule() noexcept { return *schedule_; }
  [[nodiscard]] const sim::Schedule& schedule() const noexcept { return *schedule_; }
  [[nodiscard]] const cloud::Platform& platform() const noexcept {
    return *platform_;
  }

  /// The shared structure tables (adjacency, levels, ranks, …).
  [[nodiscard]] const dag::StructureCache& structure() const noexcept {
    return *structure_;
  }

  /// Read-only pool access that leaves the reuse index clean (the mutable
  /// Schedule::pool() would conservatively invalidate it).
  [[nodiscard]] const cloud::VmPool& pool() const noexcept {
    return std::as_const(*schedule_).pool();
  }

  /// Instance size used for newly rented VMs in this run.
  [[nodiscard]] cloud::InstanceSize vm_size() const noexcept { return vm_size_; }
  [[nodiscard]] cloud::RegionId region() const noexcept { return region_; }

  /// Level of each task (longest-hop distance from an entry).
  [[nodiscard]] const std::vector<int>& levels() const {
    return structure_->levels();
  }

  /// True iff the task shares its level with at least one other task.
  [[nodiscard]] bool is_parallel_task(dag::TaskId t) const {
    return structure_->is_parallel(t);
  }

  /// True iff `vm` already hosts a task of the same level as `t`.
  [[nodiscard]] bool vm_hosts_level_of(const cloud::Vm& vm, dag::TaskId t) const;

  /// Earliest start of `t` on `vm`: max of the VM's availability, the boot
  /// completion and every predecessor's finish + transfer to `vm`.
  /// Predecessors must already be assigned.
  [[nodiscard]] util::Seconds est_on(dag::TaskId t, const cloud::Vm& vm) const;

  /// Earliest start of `t` on a hypothetical fresh VM of vm_size().
  [[nodiscard]] util::Seconds est_on_new(dag::TaskId t) const;

  /// Execution time of `t` on an instance of size `s` (memoized per size).
  [[nodiscard]] util::Seconds exec_time(dag::TaskId t, cloud::InstanceSize s) const {
    const auto& table = exec_[cloud::index_of(s)];
    return table.empty() ? fill_exec_table(s)[t] : table[t];
  }

  /// Rents a fresh VM of vm_size() in the default region.
  [[nodiscard]] cloud::VmId rent() {
    return schedule_->rent(vm_size_, region_);
  }

  /// The predecessor of `t` with the largest work (the paper's "(largest)
  /// predecessor"); nullopt for entry tasks.
  [[nodiscard]] std::optional<dag::TaskId> largest_predecessor(dag::TaskId t) const;

  /// AllPar's parallel-task reuse scan: the used VM with the largest busy
  /// time (lowest id on ties) that does not already host `t`'s level and —
  /// unless `exceed` — whose reuse would not add a BTU. kInvalidVm when no
  /// such VM exists (the caller rents). Equals the first admissible element
  /// of a linear walk over reuse_order(), but answered from a snapshot bound
  /// to `t`'s level: while a level is being placed, a surviving candidate's
  /// busy time is frozen (any same-level placement turns its VM into a
  /// host), so one reuse_order() snapshot stays exactly sorted. A max-tree
  /// over the snapshot holds each live candidate's paid-window end and
  /// slack; hosts leave it as their placements arrive, and a NotExceed query
  /// descends past every VM whose window provably closes before `t` could
  /// finish there, testing only the rest. The pool's placement_log() tells
  /// the scan which VMs changed between calls; any change that is not a
  /// same-level host or a zero-growth append (a foreign caller interleaving
  /// levels) rebuilds the snapshot.
  [[nodiscard]] cloud::VmId best_parallel_reuse(dag::TaskId t, bool exceed);

  /// Latest finish among `t`'s predecessors (0 for an entry task) — a lower
  /// bound on the predecessor term of est_on. Throws like est_on when a
  /// predecessor is unassigned.
  [[nodiscard]] util::Seconds predecessors_ready(dag::TaskId t) const;

  /// Globally cross-checks every bounded reuse walk (best_parallel_reuse,
  /// AllPar1LnS's place_chain) against the historical unbounded one;
  /// mismatches throw std::logic_error. Test-only.
  static void set_scan_verification(bool on) noexcept;
  [[nodiscard]] static bool scan_verification() noexcept;

 private:
  [[nodiscard]] const std::vector<util::Seconds>& fill_exec_table(
      cloud::InstanceSize s) const;
  void refresh_occupancy(const cloud::Vm& vm) const;

  const dag::Workflow* wf_;
  sim::Schedule* schedule_;
  const cloud::Platform* platform_;
  std::shared_ptr<const dag::StructureCache> structure_;
  cloud::InstanceSize vm_size_;
  cloud::RegionId region_;

  // Memoized exec times: one table per instance size, filled on first use.
  mutable std::array<std::vector<util::Seconds>, cloud::kSizeCount> exec_;

  [[nodiscard]] bool reuse_is_admissible(dag::TaskId t, const cloud::Vm& vm,
                                         bool exceed) const;
  [[nodiscard]] cloud::VmId linear_parallel_reuse(dag::TaskId t, bool exceed) const;

  // Per-VM level occupancy, maintained lazily: vm_cursor_[id] placements of
  // VM id have been folded into vm_levels_ (a level-count-striped bitset
  // row per VM). Placements are append-only through VmPool::place; any
  // other mutation bumps the pool's epoch and drops the whole table.
  mutable std::vector<std::uint32_t> vm_cursor_;
  mutable std::vector<char> vm_levels_;
  mutable std::uint64_t occupancy_epoch_ = 0;

  // AllPar candidate index (best_parallel_reuse): a reuse_order() snapshot
  // valid for one (level, pool epoch) pair. scan_ids_[i] is the snapshot's
  // i-th VM and scan_pos_ maps an id back to i (kNoSlot when absent);
  // scan_busy_ holds each member's busy time at the snapshot. window_tree_
  // is a max-tree over the positions (leaves at [window_leaves_, 2x)) of
  // each live candidate's paid-window end and slack (window end minus its
  // own earliest start); a level host's leaf is -inf. scan_sizes_ is the
  // bitmask of instance sizes in the snapshot. Advanced between queries by
  // folding the pool's placement_log() suffix past scan_log_cursor_.
  struct WindowKey {
    util::Seconds paid_end;
    util::Seconds slack;
  };
  static constexpr WindowKey kDeadWindow{
      -std::numeric_limits<util::Seconds>::infinity(),
      -std::numeric_limits<util::Seconds>::infinity()};
  [[nodiscard]] WindowKey window_key(const cloud::Vm& vm) const;
  void pull_window(std::size_t node);
  void set_window(std::size_t pos, WindowKey key);
  [[nodiscard]] std::size_t first_window_candidate(std::size_t from,
                                                   util::Seconds min_slack,
                                                   util::Seconds min_paid_end) const;

  std::vector<cloud::VmId> scan_ids_;
  std::vector<std::uint32_t> scan_pos_;
  std::vector<util::Seconds> scan_busy_;
  std::vector<WindowKey> window_tree_;
  std::size_t window_leaves_ = 0;
  unsigned scan_sizes_ = 0;
  int scan_level_ = -1;
  std::uint64_t scan_epoch_ = 0;
  std::size_t scan_log_cursor_ = 0;
  bool scan_valid_ = false;
};

class ProvisioningPolicy {
 public:
  virtual ~ProvisioningPolicy() = default;

  [[nodiscard]] virtual ProvisioningKind kind() const noexcept = 0;
  [[nodiscard]] std::string_view name() const noexcept { return name_of(kind()); }

  /// Chooses (renting if necessary) the VM that will run `t`. All of `t`'s
  /// predecessors must already be assigned in the context's schedule.
  [[nodiscard]] virtual cloud::VmId choose_vm(dag::TaskId t,
                                              PlacementContext& ctx) = 0;
};

/// Factory for the five paper policies.
[[nodiscard]] std::unique_ptr<ProvisioningPolicy> make_policy(ProvisioningKind kind);

}  // namespace cloudwf::provisioning
