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
/// times and per-(edge, size-pair) transfer times, and answers
/// vm_hosts_level_of from an incrementally maintained per-VM level
/// occupancy instead of scanning every placement. All answers are
/// bit-identical to the direct computations they replace.
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
  /// of a linear walk over reuse_order(), but answered from a candidate
  /// list bound to `t`'s level: while a level is being placed, a surviving
  /// candidate's busy time is frozen (any same-level placement turns its VM
  /// into a host), so one reuse_order() snapshot stays exactly sorted and
  /// hosts are unlinked in O(1) when a walk first meets them instead of
  /// being re-skipped by every later task. The pool's placement_log() tells
  /// the scan which VMs changed between calls; any change that is not a
  /// same-level host (a foreign caller interleaving levels) rebuilds the
  /// snapshot. Turns the per-level O(width²) host-skip scan into O(width).
  [[nodiscard]] cloud::VmId best_parallel_reuse(dag::TaskId t, bool exceed);

  /// Globally cross-checks every best_parallel_reuse answer against the
  /// historical linear scan; mismatches throw std::logic_error. Test-only.
  static void set_scan_verification(bool on) noexcept;

 private:
  [[nodiscard]] const std::vector<util::Seconds>& fill_exec_table(
      cloud::InstanceSize s) const;
  [[nodiscard]] util::Seconds transfer_cached(std::size_t edge_slot,
                                              util::Gigabytes data,
                                              const cloud::Vm& from,
                                              const cloud::Vm& to) const;
  void refresh_occupancy(const cloud::Vm& vm) const;

  const dag::Workflow* wf_;
  sim::Schedule* schedule_;
  const cloud::Platform* platform_;
  std::shared_ptr<const dag::StructureCache> structure_;
  cloud::InstanceSize vm_size_;
  cloud::RegionId region_;

  // Memoized exec times: one table per instance size, filled on first use.
  mutable std::array<std::vector<util::Seconds>, cloud::kSizeCount> exec_;

  // Memoized transfer times per (incoming-edge slot, from-size x to-size)
  // for default-region endpoints on distinct VMs; < 0 means "not yet
  // computed" (real transfer times are nonnegative).
  mutable std::vector<util::Seconds> transfer_;

  [[nodiscard]] bool reuse_is_admissible(dag::TaskId t, const cloud::Vm& vm,
                                         bool exceed) const;
  /// Latest finish among `t`'s predecessors (0 for an entry task) — a lower
  /// bound on the predecessor term of est_on. Throws like est_on when a
  /// predecessor is unassigned.
  [[nodiscard]] util::Seconds predecessors_ready(dag::TaskId t) const;
  [[nodiscard]] cloud::VmId linear_parallel_reuse(dag::TaskId t, bool exceed) const;

  // Per-VM level occupancy, maintained lazily: vm_cursor_[id] placements of
  // VM id have been folded into vm_levels_ (a level-count-striped bitset
  // row per VM). Placements are append-only through VmPool::place; any
  // other mutation bumps the pool's epoch and drops the whole table.
  mutable std::vector<std::uint32_t> vm_cursor_;
  mutable std::vector<char> vm_levels_;
  mutable std::uint64_t occupancy_epoch_ = 0;

  // AllPar candidate list (best_parallel_reuse): a reuse_order() snapshot
  // threaded as a singly linked list (scan_next_ indexed by VM id,
  // kInvalidVm-terminated), valid for one (level, pool epoch) pair with
  // per-member busy-time snapshots in scan_busy_. Advanced between scans by
  // folding the pool's placement_log() suffix past scan_log_cursor_.
  std::vector<cloud::VmId> scan_next_;
  std::vector<util::Seconds> scan_busy_;
  std::vector<char> scan_in_list_;
  cloud::VmId scan_head_ = cloud::kInvalidVm;
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
