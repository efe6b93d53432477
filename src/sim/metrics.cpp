#include "sim/metrics.hpp"

#include <span>
#include <stdexcept>
#include <vector>

#include "cloud/vm_billing.hpp"

namespace cloudwf::sim {

ScheduleMetrics compute_metrics(const dag::Workflow& wf, const Schedule& schedule,
                                const cloud::Platform& platform) {
  if (!schedule.complete())
    throw std::logic_error("compute_metrics: schedule is incomplete");

  ScheduleMetrics m;
  m.makespan = schedule.makespan();

  // One pass over the pool. Each aggregate is summed in VM order, as the
  // per-aggregate pool helpers (used_count, rental_cost, total_idle_time)
  // sum it, so every value is bitwise theirs.
  const cloud::VmPool& pool = schedule.pool();
  const std::vector<cloud::Vm>& vms = pool.vms();
  const cloud::RegionId first_region = vms.empty() ? 0 : vms.front().region();
  bool one_region = true;
  util::Seconds paid = 0;
  if (platform.scenario_billing_active()) {
    // Timing-aware billing (cold-start / variable-price scenarios): every
    // aggregate that involves paid time comes from cloud::vm_bill, so the
    // cold-start span and per-BTU repricing show up in cost, idle and
    // utilization alike.
    for (const cloud::Vm& v : vms) {
      if (v.used()) ++m.vms_used;
      one_region = one_region && v.region() == first_region;
      const cloud::VmBill bill = cloud::vm_bill(v, platform);
      m.vm_cost += bill.cost;
      m.total_busy += v.busy_time();
      m.total_btus += bill.btus;
      paid += bill.paid;
    }
    m.total_idle = paid - m.total_busy;
  } else {
    const std::span<const cloud::Region> regions = platform.regions();
    for (const cloud::Vm& v : vms) {
      if (v.used()) ++m.vms_used;
      one_region = one_region && v.region() == first_region;
      m.vm_cost += v.cost(regions[v.region()]);
      m.total_idle += v.idle_time();
      m.total_busy += v.busy_time();
      m.total_btus += v.btus();
      paid += v.paid_time();
    }
  }
  m.utilization = paid > 0 ? m.total_busy / paid : 0.0;

  // Egress: data leaving a region is billed at the source region's rate.
  // Only an edge between two regions adds to a bucket, so with every VM in
  // one region the buckets all stay 0 and the edges need no walk.
  std::vector<util::Gigabytes> egress_by_region(platform.regions().size(), 0.0);
  if (!one_region) {
    for (const dag::Edge& e : wf.edges()) {
      const Assignment& from = schedule.assignment(e.from);
      const Assignment& to = schedule.assignment(e.to);
      const cloud::Vm& vf = pool.vm(from.vm);
      const cloud::Vm& vt = pool.vm(to.vm);
      if (vf.region() != vt.region())
        egress_by_region[vf.region()] += wf.edge_data(e);
    }
  }
  for (std::size_t r = 0; r < egress_by_region.size(); ++r) {
    m.egress_cost += cloud::egress_cost(egress_by_region[r],
                                        platform.region(static_cast<cloud::RegionId>(r)));
  }
  m.total_cost = m.vm_cost + m.egress_cost;
  return m;
}

GainLoss relative_to_reference(const ScheduleMetrics& strategy,
                               const ScheduleMetrics& reference) {
  if (reference.makespan <= 0)
    throw std::invalid_argument("relative_to_reference: reference makespan <= 0");
  if (reference.total_cost <= util::Money{})
    throw std::invalid_argument("relative_to_reference: reference cost <= 0");

  GainLoss gl;
  gl.gain_pct = (reference.makespan - strategy.makespan) / reference.makespan * 100.0;
  gl.loss_pct = static_cast<double>((strategy.total_cost - reference.total_cost).micros()) /
                static_cast<double>(reference.total_cost.micros()) * 100.0;
  return gl;
}

}  // namespace cloudwf::sim
