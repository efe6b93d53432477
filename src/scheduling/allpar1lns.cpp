#include "scheduling/allpar1lns.hpp"

#include <algorithm>
#include <optional>
#include <stdexcept>
#include <string>

#include "dag/graph_algo.hpp"
#include "obs/trace.hpp"
#include "scheduling/level_scheduler.hpp"

namespace cloudwf::scheduling {

LevelChains build_level_chains(const dag::Workflow& wf,
                               std::vector<dag::TaskId> level) {
  LevelChains out;
  if (level.empty()) return out;

  const std::vector<dag::TaskId> ordered = level_order_desc(wf, std::move(level));
  const util::Seconds target = wf.task(ordered.front()).work;

  // The longest task is "always scheduled separately".
  out.chains.push_back({ordered.front()});

  // First-fit-decreasing: pack the rest into chains of total work <= target.
  std::vector<util::Seconds> load;  // parallel to out.chains[1..]
  for (std::size_t i = 1; i < ordered.size(); ++i) {
    const dag::TaskId t = ordered[i];
    const util::Seconds w = wf.task(t).work;
    bool packed = false;
    for (std::size_t c = 0; c < load.size(); ++c) {
      if (util::time_le(load[c] + w, target)) {
        out.chains[c + 1].push_back(t);
        load[c] += w;
        packed = true;
        break;
      }
    }
    if (!packed) {
      out.chains.push_back({t});
      load.push_back(w);
    }
  }
  return out;
}

cloud::VmId place_chain(provisioning::PlacementContext& ctx,
                        const std::vector<dag::TaskId>& chain,
                        cloud::InstanceSize size) {
  util::Seconds chain_exec = 0;
  for (dag::TaskId t : chain) chain_exec += ctx.exec_time(t, size);

  const dag::TaskId head = chain.front();
  // Busy-time-descending reuse index: the first admissible entry equals the
  // old full scan's max-busy (lowest id on ties) admissible VM, and the BTU
  // check is skipped for everything after it. NotExceed over the whole
  // chain: the VM's BTU count must not grow.
  const auto chain_adds_btu = [&](const cloud::Vm& vm, util::Seconds start) {
    return vm.placement_adds_btu(start, start + chain_exec);
  };
  const auto candidate = [&](const cloud::Vm& vm) {
    return vm.size() == size && !ctx.vm_hosts_level_of(vm, head);
  };

  // est_on is O(fan-in), so a candidate is first tested at a lower bound on
  // it: the max of its free time, its boot delay and `ready`, the
  // predecessors' latest finish (est_on only adds nonnegative transfers to
  // those, and placement_adds_btu is monotone in its start). A VM that adds
  // a BTU there adds one at est_on too; only the rest pay for est_on.
  // `ready` is read once, at the first candidate.
  cloud::VmId reuse = cloud::kInvalidVm;
  std::optional<util::Seconds> ready;
  for (cloud::VmId id : ctx.pool().reuse_order()) {
    const cloud::Vm& vm = ctx.pool().vm(id);
    if (!candidate(vm)) continue;
    if (!ready) ready = ctx.predecessors_ready(head);
    const util::Seconds bound = std::max(
        {vm.available_from(),
         ctx.platform().boot_delay(vm.size(), vm.region()), *ready});
    if (chain_adds_btu(vm, bound) || chain_adds_btu(vm, ctx.est_on(head, vm)))
      continue;
    reuse = id;
    break;
  }

  if (provisioning::PlacementContext::scan_verification()) {
    cloud::VmId reference = cloud::kInvalidVm;
    for (cloud::VmId id : ctx.pool().reuse_order()) {
      const cloud::Vm& vm = ctx.pool().vm(id);
      if (candidate(vm) && !chain_adds_btu(vm, ctx.est_on(head, vm))) {
        reference = id;
        break;
      }
    }
    if (reference != reuse)
      throw std::logic_error(
          "place_chain: bounded walk chose VM " + std::to_string(reuse) +
          ", the unbounded walk " + std::to_string(reference) +
          " for chain head " + std::to_string(head));
  }

  const cloud::VmId vm_id = reuse != cloud::kInvalidVm
                                ? reuse
                                : ctx.schedule().rent(size, ctx.region());
  for (dag::TaskId t : chain) place_at_earliest(ctx, t, vm_id);
  return vm_id;
}

sim::Schedule AllParOneLnSScheduler::run(const dag::Workflow& wf,
                                         const cloud::Platform& platform) const {
  wf.validate();
  sim::Schedule schedule(wf);
  provisioning::PlacementContext ctx(wf, schedule, platform,
                                     cloud::InstanceSize::small);

  obs::PhaseScope phase("allpar1lns: place");
  for (const auto& level : ctx.structure().level_groups()) {
    const LevelChains chains = build_level_chains(wf, level);
    obs::emit_ready_set(level.size(), [&] {
      return "allpar1lns level packed into " +
             std::to_string(chains.chains.size()) + " chains";
    });
    for (const auto& chain : chains.chains)
      (void)place_chain(ctx, chain, cloud::InstanceSize::small);
  }
  return schedule;
}

}  // namespace cloudwf::scheduling
