#include "scheduling/cpa_eager.hpp"

#include <array>
#include <stdexcept>
#include <unordered_set>

#include "dag/structure_cache.hpp"
#include "obs/trace.hpp"
#include "scheduling/upgrade.hpp"

namespace cloudwf::scheduling {

namespace {
constexpr std::size_t kSizePairs = cloud::kSizeCount * cloud::kSizeCount;
}  // namespace

CpaEagerScheduler::CpaEagerScheduler(double budget_factor)
    : budget_factor_(budget_factor) {
  if (!(budget_factor >= 1.0))
    throw std::invalid_argument("CpaEagerScheduler: budget factor must be >= 1");
}

sim::Schedule CpaEagerScheduler::run(const dag::Workflow& wf,
                                     const cloud::Platform& platform) const {
  obs::PhaseScope phase("cpa-eager: run");
  wf.validate();
  std::vector<cloud::InstanceSize> sizes(wf.task_count(), cloud::InstanceSize::small);

  // Primed retimer: the upgrade loop evaluates the candidate cost once per
  // iteration; set_size re-times only the slice the candidate's size change
  // reaches instead of the whole DAG (bit-identical to cost(sizes)).
  OneVmPerTaskRetimer retimer(wf, platform);
  retimer.prime(sizes);
  const util::Money budget = retimer.primed_cost().scaled(budget_factor_);

  // Comm between two distinct VMs (one VM per task, so every edge crosses
  // VMs; sizes only matter through link speeds, all >= small's 1 Gb — use
  // the current sizes for the endpoints). The critical path is recomputed
  // once per candidate, so both callbacks are table-backed: exec times per
  // (size, task) up front, transfer times memoized per (edge slot, size
  // pair) — the walk hands each edge's slot over, so no lookup searches a
  // predecessor list. Every entry is the result of the identical exec_time
  // / transfer_time call, keeping the path selection bit-identical.
  const std::shared_ptr<const dag::StructureCache> sc = wf.structure();
  std::array<std::vector<util::Seconds>, cloud::kSizeCount> exec_tbl;
  for (cloud::InstanceSize s : cloud::kAllSizes) {
    auto& table = exec_tbl[cloud::index_of(s)];
    table.reserve(wf.task_count());
    for (const dag::Task& task : wf.tasks())
      table.push_back(cloud::exec_time(task.work, s));
  }
  std::vector<util::Seconds> comm_memo(sc->edge_count() * kSizePairs, -1.0);

  const auto comm = [&](dag::TaskId p, dag::TaskId t, std::size_t edge_slot) {
    util::Seconds& slot =
        comm_memo[edge_slot * kSizePairs +
                  cloud::index_of(sizes[p]) * cloud::kSizeCount +
                  cloud::index_of(sizes[t])];
    if (slot < 0) {
      const cloud::Vm from(0, sizes[p], platform.default_region_id());
      const cloud::Vm to(1, sizes[t], platform.default_region_id());
      slot = platform.transfer_time(
          sc->pred_data(t)[edge_slot - sc->pred_edge_slot(t)], from, to);
    }
    return slot;
  };
  const auto exec = [&](dag::TaskId t) {
    return exec_tbl[cloud::index_of(sizes[t])][t];
  };

  // Tasks whose upgrade was rejected under the *current* configuration;
  // cleared whenever an upgrade is accepted (the critical path moved).
  std::unordered_set<dag::TaskId> rejected;

  for (;;) {
    const std::vector<dag::TaskId> cp = sc->critical_path(exec, comm);

    // Systematically attack the path: largest execution time first.
    dag::TaskId candidate = dag::kInvalidTask;
    for (dag::TaskId t : cp) {
      if (rejected.contains(t)) continue;
      if (!cloud::next_faster(sizes[t])) continue;
      if (candidate == dag::kInvalidTask || exec(t) > exec(candidate)) candidate = t;
    }
    if (candidate == dag::kInvalidTask) break;

    const cloud::InstanceSize previous = sizes[candidate];
    sizes[candidate] = *cloud::next_faster(previous);
    if (retimer.set_size(candidate, sizes[candidate]) > budget) {
      sizes[candidate] = previous;
      (void)retimer.set_size(candidate, previous);  // revert, bitwise exact
      rejected.insert(candidate);
      obs::emit_upgrade(candidate, false,
                        static_cast<double>(cloud::index_of(sizes[candidate])),
                        "CPA-Eager: upgrade busts budget");
    } else {
      rejected.clear();
      obs::emit_upgrade(candidate, true,
                        static_cast<double>(cloud::index_of(sizes[candidate])),
                        "CPA-Eager: critical-path upgrade");
    }
  }

  return retime_one_vm_per_task(wf, platform, sizes);
}

}  // namespace cloudwf::scheduling
