#include "provisioning/detail.hpp"

#include "obs/trace.hpp"

namespace cloudwf::provisioning {

cloud::VmId StartPar::choose_vm(dag::TaskId t, PlacementContext& ctx) {
  // Entry ("initial workflow") tasks each get their own VM — this is where
  // the policy's start-up parallelism comes from.
  if (ctx.structure().preds(t).empty()) {
    const cloud::VmId id = ctx.rent();
    obs::emit_decision(t, id, 0, "StartPar: entry task, rent");
    return id;
  }

  // The reuse target ("the VM with the largest execution time is chosen"):
  // the head of the pool's busy-time-ordered reuse index, which equals the
  // old linear scan's argmax with its lowest-id tie-break.
  const cloud::ReuseOrder& order = ctx.pool().reuse_order();
  if (order.empty()) return ctx.rent();  // no used VM yet (defensive)
  const cloud::Vm& candidate = ctx.pool().vm(order.front());

  if (!exceed_) {
    const util::Seconds est = ctx.est_on(t, candidate);
    const util::Seconds eft = est + ctx.exec_time(t, candidate.size());
    if (candidate.placement_adds_btu(est, eft)) {
      const cloud::VmId id = ctx.rent();
      obs::emit_decision(t, id, est,
                         "StartParNotExceed: reuse would add a BTU, rent");
      return id;
    }
  }
  obs::emit_decision(t, candidate.id(), 0,
                     exceed_ ? "StartParExceed: reuse largest-execution VM"
                             : "StartParNotExceed: reuse largest-execution VM");
  return candidate.id();
}

}  // namespace cloudwf::provisioning
