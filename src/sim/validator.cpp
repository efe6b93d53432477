#include "sim/validator.hpp"

#include <algorithm>
#include <span>
#include <sstream>

namespace cloudwf::sim {

namespace {
std::string describe_task(const dag::Workflow& wf, dag::TaskId t) {
  return "task '" + wf.task(t).name + "' (#" + std::to_string(t) + ")";
}

bool starts_strictly_ascend(std::span<const cloud::Placement> ps) {
  for (std::size_t i = 1; i < ps.size(); ++i)
    if (!(ps[i - 1].start < ps[i].start)) return false;
  return true;
}
}  // namespace

std::vector<std::string> validate(const dag::Workflow& wf, const Schedule& schedule,
                                  const cloud::Platform& platform) {
  std::vector<std::string> issues;
  auto complain = [&issues](const std::string& msg) { issues.push_back(msg); };

  if (schedule.task_count() != wf.task_count()) {
    complain("schedule sized for " + std::to_string(schedule.task_count()) +
             " tasks but workflow has " + std::to_string(wf.task_count()));
    return issues;
  }

  const cloud::VmPool& pool = schedule.pool();

  // Assignment sanity and duration correctness.
  for (const dag::Task& t : wf.tasks()) {
    if (!schedule.is_assigned(t.id)) {
      complain(describe_task(wf, t.id) + " is unassigned");
      continue;
    }
    const Assignment& a = schedule.assignment(t.id);
    if (a.vm >= pool.size()) {
      complain(describe_task(wf, t.id) + " assigned to nonexistent VM " +
               std::to_string(a.vm));
      continue;
    }
    if (a.start < -util::kTimeEpsilon)
      complain(describe_task(wf, t.id) + " starts before time 0");
    const cloud::Vm& vm = pool.vm(a.vm);
    const util::Seconds expected = cloud::exec_time(t.work, vm.size());
    if (!util::time_eq(a.duration(), expected)) {
      std::ostringstream os;
      os << describe_task(wf, t.id) << " duration " << a.duration()
         << "s does not match work/speedup = " << expected << "s on "
         << name_of(vm.size());
      complain(os.str());
    }
  }
  if (!issues.empty()) return issues;  // later checks need valid assignments

  // Task table vs VM timelines: every placement mirrors an assignment and
  // vice versa.
  std::size_t placement_count = 0;
  for (const cloud::Vm& vm : pool.vms()) {
    for (const cloud::Placement& p : vm.placements()) {
      ++placement_count;
      const Assignment& a = schedule.assignment(p.task);
      if (a.vm != vm.id() || !util::time_eq(a.start, p.start) ||
          !util::time_eq(a.end, p.end))
        complain(describe_task(wf, p.task) + " placement on VM " +
                 std::to_string(vm.id()) + " disagrees with the task table");
    }
  }
  if (placement_count != wf.task_count())
    complain("VM timelines hold " + std::to_string(placement_count) +
             " placements for " + std::to_string(wf.task_count()) + " tasks");

  // Exclusivity: placements on one VM must not overlap (sorted by start).
  // A timeline whose starts strictly ascend is already the one order a sort
  // can produce, so it is walked in place; any other is copied and sorted.
  std::vector<cloud::Placement> sorted;
  for (const cloud::Vm& vm : pool.vms()) {
    std::span<const cloud::Placement> ps = vm.placements();
    if (!starts_strictly_ascend(ps)) {
      sorted.assign(ps.begin(), ps.end());
      std::sort(sorted.begin(), sorted.end(),
                [](const cloud::Placement& x, const cloud::Placement& y) {
                  return x.start < y.start;
                });
      ps = sorted;
    }
    for (std::size_t i = 1; i < ps.size(); ++i) {
      if (util::time_gt(ps[i - 1].end, ps[i].start))
        complain("VM " + std::to_string(vm.id()) + ": " +
                 describe_task(wf, ps[i - 1].task) + " overlaps " +
                 describe_task(wf, ps[i].task));
    }
  }

  // Precedence with transfers on the assigned endpoints.
  for (const dag::Edge& e : wf.edges()) {
    const Assignment& from = schedule.assignment(e.from);
    const Assignment& to = schedule.assignment(e.to);
    const util::Seconds transfer = platform.transfer_time(
        wf.edge_data(e), pool.vm(from.vm), pool.vm(to.vm));
    if (util::time_gt(from.end + transfer, to.start)) {
      std::ostringstream os;
      os << describe_task(wf, e.to) << " starts at " << to.start << "s but "
         << describe_task(wf, e.from) << " finishes at " << from.end
         << "s + transfer " << transfer << "s";
      complain(os.str());
    }
  }

  return issues;
}

void validate_or_throw(const dag::Workflow& wf, const Schedule& schedule,
                       const cloud::Platform& platform) {
  const std::vector<std::string> issues = validate(wf, schedule, platform);
  if (issues.empty()) return;
  std::ostringstream os;
  os << "infeasible schedule for workflow '" << wf.name() << "':";
  for (const std::string& i : issues) os << "\n  - " << i;
  throw std::logic_error(os.str());
}

}  // namespace cloudwf::sim
