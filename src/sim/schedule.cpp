#include "sim/schedule.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "obs/trace.hpp"

namespace cloudwf::sim {

cloud::VmId Schedule::rent(cloud::InstanceSize size, cloud::RegionId region) {
  const cloud::VmId id = pool_.rent(size, region).id();
  obs::emit_vm_rent(id, 0, [&] {
    return std::string(cloud::suffix_of(size)) + ", region " +
           std::to_string(region);
  });
  return id;
}

void Schedule::assign(dag::TaskId task, cloud::VmId vm, util::Seconds start,
                      util::Seconds end) {
  if (task >= assignments_.size())
    throw std::out_of_range("Schedule::assign: bad task id");
  if (assignments_[task].valid())
    throw std::logic_error("Schedule::assign: task already assigned");
  // Placements go through the pool so its reuse index stays incremental
  // (const access beforehand — the mutable vm() accessor would mark the
  // index dirty and force a rebuild on the next policy query).
  if (!obs::enabled()) {
    pool_.place(vm, task, start, end);  // validates the interval
  } else {
    // Canonical placement event: reuse flag + BTU delta come from the VM's
    // session state around the placement, so the trace counters are a
    // second witness to compute_metrics' aggregates for every scheduler.
    const cloud::Vm& v = std::as_const(pool_).vm(vm);
    const bool reused = v.used();
    const std::int64_t btus_before = v.btus();
    pool_.place(vm, task, start, end);
    obs::emit_task_place(task, vm, start, end, reused,
                         static_cast<double>(v.btus() - btus_before));
  }
  assignments_[task] = Assignment{vm, start, end};
}

bool Schedule::is_assigned(dag::TaskId t) const {
  if (t >= assignments_.size())
    throw std::out_of_range("Schedule::is_assigned: bad task id");
  return assignments_[t].valid();
}

const Assignment& Schedule::assignment(dag::TaskId t) const {
  if (t >= assignments_.size())
    throw std::out_of_range("Schedule::assignment: bad task id");
  if (!assignments_[t].valid())
    throw std::logic_error("Schedule::assignment: task not assigned");
  return assignments_[t];
}

std::size_t Schedule::assigned_count() const noexcept {
  return static_cast<std::size_t>(
      std::count_if(assignments_.begin(), assignments_.end(),
                    [](const Assignment& a) { return a.valid(); }));
}

util::Seconds Schedule::makespan() const noexcept {
  util::Seconds ms = 0;
  for (const Assignment& a : assignments_)
    if (a.valid()) ms = std::max(ms, a.end);
  return ms;
}

void Schedule::clear_assignments() noexcept {
  for (Assignment& a : assignments_) a = Assignment{};
  pool_.clear_placements();
}

}  // namespace cloudwf::sim
