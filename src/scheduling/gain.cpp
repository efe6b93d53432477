#include "scheduling/gain.hpp"

#include <array>
#include <limits>
#include <queue>
#include <stdexcept>
#include <utility>
#include <vector>

#include "obs/trace.hpp"
#include "scheduling/upgrade.hpp"

namespace cloudwf::scheduling {

GainScheduler::GainScheduler(double budget_factor) : budget_factor_(budget_factor) {
  if (!(budget_factor >= 1.0))
    throw std::invalid_argument("GainScheduler: budget factor must be >= 1");
}

sim::Schedule GainScheduler::run(const dag::Workflow& wf,
                                 const cloud::Platform& platform) const {
  obs::PhaseScope phase("gain: run");
  wf.validate();
  std::vector<cloud::InstanceSize> sizes(wf.task_count(), cloud::InstanceSize::small);

  // Primed retimer: one full retime caches per-task times and exact per-VM
  // cost contributions; each candidate's budget test then re-times only the
  // slice its size change actually reaches (bit-identical to the full
  // cost(sizes) call it replaces — see OneVmPerTaskRetimer::set_size).
  OneVmPerTaskRetimer retimer(wf, platform);
  retimer.prime(sizes);
  const util::Money budget = retimer.primed_cost().scaled(budget_factor_);
  const cloud::Region& region = platform.default_region();

  // The gain matrix's ingredients are fixed per (task, size) — works and
  // region never change inside the loop — so tabulate them once instead of
  // recomputing the whole matrix every sweep. Entries are the results of
  // the identical exec_time / rental_cost calls, so sweeps stay
  // bit-identical.
  std::array<std::vector<util::Seconds>, cloud::kSizeCount> exec_tbl;
  std::array<std::vector<util::Money>, cloud::kSizeCount> cost_tbl;
  for (cloud::InstanceSize s : cloud::kAllSizes) {
    const std::size_t si = cloud::index_of(s);
    exec_tbl[si].reserve(wf.task_count());
    cost_tbl[si].reserve(wf.task_count());
    for (const dag::Task& task : wf.tasks()) {
      const util::Seconds e = cloud::exec_time(task.work, s);
      exec_tbl[si].push_back(e);
      cost_tbl[si].push_back(cloud::rental_cost(e, s, region));
    }
  }

  // (task, target size) pairs rejected for busting the budget in the current
  // configuration. A successful upgrade lowers nothing, so rejections stay
  // rejected (total cost is non-decreasing in upgrades). Flat bitmask: the
  // matrix sweep probes every cell every iteration, so lookups are the
  // inner-loop hot path.
  std::vector<char> rejected(wf.task_count() * cloud::kSizeCount, 0);
  const auto rejected_slot = [&](dag::TaskId t, cloud::InstanceSize s) -> char& {
    return rejected[t * cloud::kSizeCount + cloud::index_of(s)];
  };

  // Gain frontier: a lazy max-heap over the candidate cells. The matrix
  // sweep this replaces scanned every (task, target) cell per iteration —
  // O(n) per upgrade, O(n^2) per run; the heap pops the same argmax in
  // O(log n). The sweep kept strict improvements while scanning tasks then
  // targets ascending, so its pick is the max gain with the lowest task id
  // and smallest target on ties — exactly this comparator's top. A cell's
  // gain depends only on its own task's current size, so an accepted
  // upgrade invalidates just that task's cells: stale entries (recorded
  // `cur` no longer current, or cell meanwhile rejected) are dropped when
  // they surface.
  struct Cell {
    double gain;
    dag::TaskId task;
    cloud::InstanceSize cur;
    cloud::InstanceSize target;
  };
  const auto after = [](const Cell& a, const Cell& b) {
    if (a.gain != b.gain) return a.gain < b.gain;
    if (a.task != b.task) return a.task > b.task;
    return cloud::index_of(a.target) > cloud::index_of(b.target);
  };
  std::priority_queue<Cell, std::vector<Cell>, decltype(after)> frontier(after);
  const auto push_cells = [&](dag::TaskId t) {
    const cloud::InstanceSize cur = sizes[t];
    const util::Seconds exec_cur = exec_tbl[cloud::index_of(cur)][t];
    const util::Money cost_cur = cost_tbl[cloud::index_of(cur)][t];
    for (cloud::InstanceSize target : cloud::kAllSizes) {
      if (cloud::index_of(target) <= cloud::index_of(cur)) continue;
      if (rejected_slot(t, target) != 0) continue;
      const std::size_t ti = cloud::index_of(target);
      const util::Seconds dt = exec_cur - exec_tbl[ti][t];
      const util::Money dc = cost_tbl[ti][t] - cost_cur;
      // A faster VM at no extra BTU cost is an unconditional win.
      const double gain = dc <= util::Money{}
                              ? std::numeric_limits<double>::infinity()
                              : dt / dc.dollars();
      frontier.push(Cell{gain, t, cur, target});
    }
  };
  for (const dag::Task& task : wf.tasks()) push_cells(task.id);

  for (;;) {
    while (!frontier.empty() &&
           (sizes[frontier.top().task] != frontier.top().cur ||
            rejected_slot(frontier.top().task, frontier.top().target) != 0))
      frontier.pop();
    if (frontier.empty()) break;
    const Cell best = frontier.top();
    if (best.gain <= 0) break;
    frontier.pop();

    if (retimer.set_size(best.task, best.target) > budget) {
      (void)retimer.set_size(best.task, best.cur);  // revert, bitwise exact
      rejected_slot(best.task, best.target) = 1;
      obs::emit_upgrade(best.task, false, best.gain,
                        "GAIN: best move busts budget");
    } else {
      sizes[best.task] = best.target;
      push_cells(best.task);
      obs::emit_upgrade(best.task, true, best.gain, "GAIN: gain-matrix move");
    }
  }

  return retime_one_vm_per_task(wf, platform, sizes);
}

}  // namespace cloudwf::scheduling
