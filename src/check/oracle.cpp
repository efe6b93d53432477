#include "check/oracle.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "cloud/vm_billing.hpp"

namespace cloudwf::check {

util::Json Violation::to_json() const {
  util::Json v = util::Json::object();
  v["invariant"] = invariant;
  v["detail"] = detail;
  return v;
}

util::Json OracleReport::to_json() const {
  util::Json r = util::Json::object();
  r["workflow"] = workflow;
  r["ok"] = ok();
  util::Json list = util::Json::array();
  for (const Violation& v : violations) list.push_back(v.to_json());
  r["violations"] = std::move(list);
  return r;
}

std::string OracleReport::to_string() const {
  std::ostringstream os;
  for (std::size_t i = 0; i < violations.size(); ++i) {
    if (i) os << '\n';
    os << violations[i].invariant << ": " << violations[i].detail;
  }
  return os.str();
}

namespace {

/// Independent BTU quantization — deliberately not cloud::btus_for, so a
/// regression there is caught rather than mirrored. Spec (Sect. IV-A): a
/// started rental pays at least one whole 3600 s unit; spans on a BTU
/// boundary (within the schedule-time slack) pay exactly that many.
std::int64_t oracle_btus(util::Seconds span) {
  if (span <= util::kTimeEpsilon) return 1;
  return static_cast<std::int64_t>(
      std::ceil((span - util::kTimeEpsilon) / util::kBtu));
}

std::string task_label(const dag::Workflow& wf, dag::TaskId t) {
  return "task '" + wf.task(t).name + "' (#" + std::to_string(t) + ")";
}

class Checker {
 public:
  Checker(const dag::Workflow& wf, const sim::Schedule& schedule,
          const cloud::Platform& platform)
      : wf_(wf), schedule_(schedule), platform_(platform) {}

  OracleReport run() {
    report_.workflow = wf_.name();
    if (!check_assignments()) return std::move(report_);
    check_table_vs_timelines();
    check_overlap();
    check_precedence();
    check_boot();
    check_billing();
    check_metrics();
    return std::move(report_);
  }

 private:
  void complain(std::string invariant, std::string detail) {
    report_.violations.push_back(
        Violation{std::move(invariant), std::move(detail)});
  }

  /// Assignment sanity: every task assigned once to a real VM, with finite
  /// nonnegative times and the duration the platform model dictates.
  /// Returns false when later checks would dereference invalid assignments.
  bool check_assignments() {
    if (schedule_.task_count() != wf_.task_count()) {
      complain("assignment",
               "schedule sized for " + std::to_string(schedule_.task_count()) +
                   " tasks but workflow has " +
                   std::to_string(wf_.task_count()));
      return false;
    }
    bool usable = true;
    const cloud::VmPool& pool = schedule_.pool();
    for (const dag::Task& t : wf_.tasks()) {
      if (!schedule_.is_assigned(t.id)) {
        complain("assignment", task_label(wf_, t.id) + " is unassigned");
        usable = false;
        continue;
      }
      const sim::Assignment& a = schedule_.assignment(t.id);
      if (a.vm >= pool.size()) {
        complain("assignment", task_label(wf_, t.id) +
                                   " assigned to nonexistent VM " +
                                   std::to_string(a.vm));
        usable = false;
        continue;
      }
      if (!std::isfinite(a.start) || !std::isfinite(a.end)) {
        complain("assignment",
                 task_label(wf_, t.id) + " has non-finite start/end");
        usable = false;
        continue;
      }
      if (a.start < -util::kTimeEpsilon)
        complain("assignment", task_label(wf_, t.id) + " starts before time 0");
      if (a.end < a.start - util::kTimeEpsilon)
        complain("assignment", task_label(wf_, t.id) + " ends before it starts");
      const cloud::Vm& vm = pool.vm(a.vm);
      const util::Seconds expected = cloud::exec_time(t.work, vm.size());
      if (!util::time_eq(a.duration(), expected)) {
        std::ostringstream os;
        os << task_label(wf_, t.id) << " duration " << a.duration()
           << "s != work/speedup = " << expected << "s on "
           << cloud::name_of(vm.size());
        complain("duration", os.str());
      }
    }
    return usable;
  }

  void check_table_vs_timelines() {
    std::size_t placement_count = 0;
    for (const cloud::Vm& vm : schedule_.pool().vms()) {
      for (const cloud::Placement& p : vm.placements()) {
        ++placement_count;
        if (p.task >= wf_.task_count()) {
          complain("table-timeline", "VM " + std::to_string(vm.id()) +
                                         " hosts nonexistent task #" +
                                         std::to_string(p.task));
          continue;
        }
        const sim::Assignment& a = schedule_.assignment(p.task);
        if (a.vm != vm.id() || !util::time_eq(a.start, p.start) ||
            !util::time_eq(a.end, p.end))
          complain("table-timeline",
                   task_label(wf_, p.task) + " placement on VM " +
                       std::to_string(vm.id()) +
                       " disagrees with the task table");
      }
    }
    if (placement_count != wf_.task_count())
      complain("table-timeline",
               "VM timelines hold " + std::to_string(placement_count) +
                   " placements for " + std::to_string(wf_.task_count()) +
                   " tasks");
  }

  void check_overlap() {
    for (const cloud::Vm& vm : schedule_.pool().vms()) {
      std::vector<cloud::Placement> ps(vm.placements());
      std::sort(ps.begin(), ps.end(),
                [](const cloud::Placement& x, const cloud::Placement& y) {
                  return x.start < y.start;
                });
      for (std::size_t i = 1; i < ps.size(); ++i) {
        if (util::time_gt(ps[i - 1].end, ps[i].start))
          complain("overlap", "VM " + std::to_string(vm.id()) + ": " +
                                  task_label(wf_, ps[i - 1].task) +
                                  " overlaps " + task_label(wf_, ps[i].task));
      }
    }
  }

  void check_precedence() {
    const cloud::VmPool& pool = schedule_.pool();
    for (const dag::Edge& e : wf_.edges()) {
      if (!schedule_.is_assigned(e.from) || !schedule_.is_assigned(e.to))
        continue;  // already reported by check_assignments
      const sim::Assignment& from = schedule_.assignment(e.from);
      const sim::Assignment& to = schedule_.assignment(e.to);
      if (from.vm >= pool.size() || to.vm >= pool.size()) continue;
      const util::Seconds transfer = platform_.transfer_time(
          wf_.edge_data(e.from, e.to), pool.vm(from.vm), pool.vm(to.vm));
      if (util::time_gt(from.end + transfer, to.start)) {
        std::ostringstream os;
        os << task_label(wf_, e.to) << " starts at " << to.start << "s but "
           << task_label(wf_, e.from) << " finishes at " << from.end
           << "s + transfer " << transfer << "s";
        complain("precedence", os.str());
      }
    }
  }

  /// No task may start before its VM has booted. The model boots every VM
  /// at time 0 (pre-booting, Sect. IV-A), so the first feasible start is the
  /// platform's boot delay — per (size, region) under a cold-start model,
  /// the flat boot time otherwise — for every placement, not just the first.
  void check_boot() {
    for (const cloud::Vm& vm : schedule_.pool().vms()) {
      if (!vm.used()) continue;
      const util::Seconds boot = platform_.boot_delay(vm.size(), vm.region());
      if (boot <= 0) continue;
      const cloud::Placement& first = vm.placements().front();
      if (util::time_gt(boot, first.start)) {
        std::ostringstream os;
        os << task_label(wf_, first.task) << " starts at " << first.start
           << "s on VM " << vm.id() << " before the " << boot
           << "s boot completes";
        complain("boot", os.str());
      }
    }
  }

  /// Recomputes the whole bill from raw placements: sessions re-derived by
  /// the rent/stop rule (a placement past the running session's paid window
  /// means the VM was released at that boundary and rented anew), BTUs by
  /// the independent quantizer, prices straight from the region table. Under
  /// scenario billing the oracle applies its own cold-start anchor shift and
  /// its own per-BTU fraction lookups, never touching Vm::sessions() or
  /// vm_bill's arithmetic — those are what it certifies.
  void check_billing() {
    const cloud::VmPool& pool = schedule_.pool();
    const bool scenario = platform_.scenario_billing_active();
    const cloud::PriceSchedule* prices = platform_.price_schedule();
    util::Money recomputed_total;
    bool per_vm_ok = true;
    for (const cloud::Vm& vm : pool.vms()) {
      std::vector<cloud::Placement> ps(vm.placements());
      std::sort(ps.begin(), ps.end(),
                [](const cloud::Placement& x, const cloud::Placement& y) {
                  return x.start < y.start;
                });
      // Session intervals re-derived from raw placements alone.
      std::vector<std::pair<util::Seconds, util::Seconds>> sessions;
      for (const cloud::Placement& p : ps) {
        if (sessions.empty()) {
          sessions.emplace_back(p.start, p.end);
          continue;
        }
        auto& cur = sessions.back();
        const util::Seconds paid_end =
            cur.first + static_cast<util::Seconds>(
                            oracle_btus(cur.second - cur.first)) *
                            util::kBtu;
        if (util::time_gt(p.start, paid_end)) {
          // The VM sat idle past a paid boundary: stop event, then re-rent.
          sessions.emplace_back(p.start, p.end);
        } else {
          cur.second = p.end;
        }
      }

      const util::Seconds cold =
          scenario ? platform_.cold_start_delay(vm.size(), vm.region()) : 0.0;
      const util::Money list = platform_.region(vm.region()).price(vm.size());
      std::int64_t btus = 0;
      util::Money cost;
      for (std::size_t i = 0; i < sessions.size(); ++i) {
        // The first session's meter runs while the instance provisions.
        const util::Seconds anchor =
            i == 0 ? sessions[i].first - cold : sessions[i].first;
        const std::int64_t n = oracle_btus(sessions[i].second - anchor);
        btus += n;
        if (scenario && prices != nullptr) {
          for (std::int64_t k = 0; k < n; ++k)
            cost += list.scaled(prices->fraction_at(
                vm.size(), anchor + static_cast<util::Seconds>(k) * util::kBtu));
        } else {
          cost += list * n;
        }
      }

      const cloud::VmBill fast = cloud::vm_bill(vm, platform_);
      if (btus != fast.btus) {
        complain("billing", "VM " + std::to_string(vm.id()) + " bills " +
                                std::to_string(fast.btus) +
                                " BTUs but the rent/stop replay pays " +
                                std::to_string(btus));
        per_vm_ok = false;
        continue;
      }
      if (cost != fast.cost) {
        complain("billing", "VM " + std::to_string(vm.id()) + " bills " +
                                fast.cost.to_string() +
                                " but the rent/stop replay pays " +
                                cost.to_string());
        per_vm_ok = false;
        continue;
      }
      recomputed_total += cost;
    }
    const util::Money pool_total =
        scenario ? cloud::pool_rental_cost(pool, platform_)
                 : pool.rental_cost(platform_.regions());
    if (per_vm_ok && recomputed_total != pool_total)
      complain("billing", "pool rental cost " + pool_total.to_string() +
                              " != independently recomputed " +
                              recomputed_total.to_string());
  }

  /// compute_metrics' aggregates, re-derived without Vm's cached busy time
  /// or the pool's summations. Money compares exactly; seconds within the
  /// schedule-time slack.
  void check_metrics() {
    if (!schedule_.complete() || !report_.violations.empty())
      return;  // aggregates of a broken schedule are meaningless
    const sim::ScheduleMetrics m =
        sim::compute_metrics(wf_, schedule_, platform_);

    util::Seconds makespan = 0;
    for (const dag::Task& t : wf_.tasks())
      makespan = std::max(makespan, schedule_.assignment(t.id).end);
    if (!util::time_eq(makespan, m.makespan))
      complain("metrics", "makespan " + std::to_string(m.makespan) +
                              " != recomputed " + std::to_string(makespan));

    const cloud::VmPool& pool = schedule_.pool();
    util::Seconds busy = 0;
    util::Seconds paid = 0;
    std::int64_t btus = 0;
    std::size_t used = 0;
    const bool scenario = platform_.scenario_billing_active();
    for (const cloud::Vm& vm : pool.vms()) {
      if (!vm.used()) continue;
      ++used;
      for (const cloud::Placement& p : vm.placements()) busy += p.end - p.start;
      if (scenario) {
        // Per-VM bills already certified against the raw-placement replay by
        // check_billing; here they anchor the aggregate cross-check.
        const cloud::VmBill bill = cloud::vm_bill(vm, platform_);
        btus += bill.btus;
        paid += bill.paid;
      } else {
        btus += vm.btus();  // per-VM BTUs already certified by check_billing
        paid += static_cast<util::Seconds>(vm.btus()) * util::kBtu;
      }
    }
    if (used != m.vms_used)
      complain("metrics", "vms_used " + std::to_string(m.vms_used) +
                              " != recomputed " + std::to_string(used));
    if (btus != m.total_btus)
      complain("metrics", "total_btus " + std::to_string(m.total_btus) +
                              " != recomputed " + std::to_string(btus));
    if (!util::time_eq(busy, m.total_busy))
      complain("metrics", "total_busy " + std::to_string(m.total_busy) +
                              " != recomputed " + std::to_string(busy));
    if (!util::time_eq(paid - busy, m.total_idle))
      complain("metrics", "total_idle " + std::to_string(m.total_idle) +
                              " != recomputed " + std::to_string(paid - busy));
    const double utilization = paid > 0 ? busy / paid : 0.0;
    if (std::abs(utilization - m.utilization) > 1e-9)
      complain("metrics", "utilization " + std::to_string(m.utilization) +
                              " != recomputed " + std::to_string(utilization));

    // Egress: per-source-region volumes over all cross-region edges, billed
    // in the (1 GB, 10 TB] band at the source's transfer-out price.
    std::vector<util::Gigabytes> egress(platform_.regions().size(), 0.0);
    for (const dag::Edge& e : wf_.edges()) {
      const cloud::Vm& vf = pool.vm(schedule_.assignment(e.from).vm);
      const cloud::Vm& vt = pool.vm(schedule_.assignment(e.to).vm);
      if (vf.region() != vt.region())
        egress[vf.region()] += wf_.edge_data(e.from, e.to);
    }
    util::Money egress_cost;
    for (std::size_t r = 0; r < egress.size(); ++r) {
      constexpr util::Gigabytes kFree = 1.0;
      constexpr util::Gigabytes kCap = 10.0 * 1024.0;
      util::Gigabytes billable = 0.0;
      if (egress[r] > kFree) billable = std::min(egress[r], kCap) - kFree;
      egress_cost += platform_.region(static_cast<cloud::RegionId>(r))
                         .transfer_out_per_gb.scaled(billable);
    }
    if (egress_cost != m.egress_cost)
      complain("metrics", "egress_cost " + m.egress_cost.to_string() +
                              " != recomputed " + egress_cost.to_string());
    if (m.vm_cost + m.egress_cost != m.total_cost)
      complain("metrics", "total_cost " + m.total_cost.to_string() +
                              " != vm_cost + egress_cost");
  }

  const dag::Workflow& wf_;
  const sim::Schedule& schedule_;
  const cloud::Platform& platform_;
  OracleReport report_;
};

}  // namespace

OracleReport check_schedule(const dag::Workflow& wf,
                            const sim::Schedule& schedule,
                            const cloud::Platform& platform) {
  return Checker(wf, schedule, platform).run();
}

void check_schedule_or_throw(const dag::Workflow& wf,
                             const sim::Schedule& schedule,
                             const cloud::Platform& platform) {
  const OracleReport report = check_schedule(wf, schedule, platform);
  if (report.ok()) return;
  throw std::logic_error("oracle: infeasible schedule for workflow '" +
                         wf.name() + "':\n" + report.to_string());
}

}  // namespace cloudwf::check
