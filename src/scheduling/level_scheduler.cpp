#include "scheduling/level_scheduler.hpp"

#include <algorithm>
#include <stdexcept>

#include "dag/graph_algo.hpp"
#include "obs/trace.hpp"

namespace cloudwf::scheduling {

std::vector<dag::TaskId> level_order_desc(const dag::Workflow& wf,
                                          std::vector<dag::TaskId> level) {
  std::sort(level.begin(), level.end(), [&](dag::TaskId x, dag::TaskId y) {
    if (wf.task(x).work != wf.task(y).work) return wf.task(x).work > wf.task(y).work;
    return x < y;
  });
  return level;
}

LevelScheduler::LevelScheduler(provisioning::ProvisioningKind provisioning,
                               cloud::InstanceSize size)
    : provisioning_(provisioning), size_(size) {
  using provisioning::ProvisioningKind;
  if (provisioning_ != ProvisioningKind::all_par_not_exceed &&
      provisioning_ != ProvisioningKind::all_par_exceed)
    throw std::invalid_argument(
        "LevelScheduler: only the AllPar provisionings use level ranking "
        "(paper Table I)");
  policy_ = provisioning::make_policy(provisioning_);
}

std::string LevelScheduler::name() const {
  return std::string(provisioning::name_of(provisioning_)) + "-" +
         std::string(cloud::suffix_of(size_));
}

sim::Schedule LevelScheduler::run(const dag::Workflow& wf,
                                  const cloud::Platform& platform) const {
  wf.validate();
  sim::Schedule schedule(wf);
  provisioning::PlacementContext ctx(wf, schedule, platform, size_);

  // Level groups and the per-level work-descending order come ready-sorted
  // from the structure cache — shared by both AllPar strategies, every size
  // and every seed on this workflow instance.
  obs::PhaseScope phase("level-scheduler: place");
  std::size_t level_index = 0;
  for (const auto& level : ctx.structure().levels_by_work_desc()) {
    obs::emit_ready_set(level.size(), [&] {
      return "level " + std::to_string(level_index) + " ready set";
    });
    ++level_index;
    for (dag::TaskId t : level)
      place_at_earliest(ctx, t, policy_->choose_vm(t, ctx));
  }
  return schedule;
}

}  // namespace cloudwf::scheduling
