#include "provisioning/detail.hpp"

#include "obs/trace.hpp"

namespace cloudwf::provisioning {

namespace {
/// Whether reusing `vm` for `t` would grow its BTU count (evaluated at the
/// actual earliest start/finish on that VM).
bool reuse_adds_btu(const PlacementContext& ctx, dag::TaskId t, const cloud::Vm& vm) {
  const util::Seconds est = ctx.est_on(t, vm);
  return vm.placement_adds_btu(est, est + ctx.exec_time(t, vm.size()));
}
}  // namespace

cloud::VmId AllPar::choose_vm(dag::TaskId t, PlacementContext& ctx) {
  const cloud::VmPool& pool = ctx.pool();
  // Used VMs by busy time descending (lowest id on ties): the first
  // admissible entry equals the historical linear scan's "largest
  // accumulated execution time" argmax, without evaluating est_on for the
  // VMs it skips.
  const cloud::ReuseOrder& order = pool.reuse_order();

  if (!ctx.is_parallel_task(t)) {
    // Sequential task: "executed on the VM with the longest execution time —
    // usually their (largest) predecessor". NotExceed rents when reuse would
    // add a BTU.
    if (order.empty()) return ctx.rent();
    const cloud::Vm& best = pool.vm(order.front());
    if (!exceed_ && reuse_adds_btu(ctx, t, best)) {
      const cloud::VmId id = ctx.rent();
      obs::emit_decision(t, id, 0,
                         "AllParNotExceed: sequential reuse would add a BTU, "
                         "rent");
      return id;
    }
    obs::emit_decision(t, best.id(), 0,
                       "AllPar: sequential task, reuse largest-execution VM");
    return best.id();
  }

  // Parallel task: its own VM, never shared with a same-level task.
  // Preference order keeps data local and idle time low:
  //   1. the largest predecessor's VM (if level-free and BTU-admissible),
  //   2. the level-free used VM with the largest accumulated execution time,
  //   3. a new VM ("the number of parallel tasks exceeds the number of VMs
  //      or a task execution time exceeds the assigned VM's BTU").
  auto admissible = [&](const cloud::Vm& vm) {
    if (ctx.vm_hosts_level_of(vm, t)) return false;
    if (!exceed_ && reuse_adds_btu(ctx, t, vm)) return false;
    return true;
  };

  if (const auto pred = ctx.largest_predecessor(t)) {
    if (ctx.schedule().is_assigned(*pred)) {
      const cloud::Vm& pred_vm = pool.vm(ctx.schedule().assignment(*pred).vm);
      if (admissible(pred_vm)) {
        obs::emit_decision(t, pred_vm.id(), 0,
                           "AllPar: reuse largest predecessor's VM");
        return pred_vm.id();
      }
    }
  }

  // Indexed candidate scan: same first-admissible answer as walking `order`,
  // without paying O(width) level-host skips per task (docs/PERFORMANCE.md).
  if (const cloud::VmId best = ctx.best_parallel_reuse(t, exceed_);
      best != cloud::kInvalidVm) {
    obs::emit_decision(t, best, 0,
                       "AllPar: reuse level-free largest-execution VM");
    return best;
  }
  const cloud::VmId id = ctx.rent();
  obs::emit_decision(t, id, 0,
                     exceed_ ? "AllParExceed: level outgrew the pool, rent"
                             : "AllParNotExceed: no BTU-admissible VM, rent");
  return id;
}

}  // namespace cloudwf::provisioning
