#include "scheduling/upgrade.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "cloud/billing.hpp"
#include "dag/graph_algo.hpp"
#include "dag/structure_cache.hpp"
#include "obs/trace.hpp"

namespace cloudwf::scheduling {

namespace {
constexpr std::size_t kSizePairs = cloud::kSizeCount * cloud::kSizeCount;
}  // namespace

sim::Schedule retime_one_vm_per_task(const dag::Workflow& wf,
                                     const cloud::Platform& platform,
                                     std::span<const cloud::InstanceSize> sizes) {
  if (sizes.size() != wf.task_count())
    throw std::invalid_argument("retime_one_vm_per_task: size vector mismatch");

  sim::Schedule schedule(wf);
  for (std::size_t i = 0; i < sizes.size(); ++i)
    (void)schedule.rent(sizes[i], platform.default_region_id());

  for (dag::TaskId t : dag::topological_order(wf)) {
    const cloud::Vm& vm = schedule.pool().vm(static_cast<cloud::VmId>(t));
    util::Seconds est = platform.boot_delay(vm.size(), vm.region());
    for (dag::TaskId p : wf.predecessors(t)) {
      const sim::Assignment& pa = schedule.assignment(p);
      est = std::max(est, pa.end + platform.transfer_time(
                              wf.edge_data(p, t), schedule.pool().vm(pa.vm), vm));
    }
    schedule.assign(t, vm.id(), est, est + cloud::exec_time(wf.task(t).work, vm.size()));
  }
  return schedule;
}

sim::ScheduleMetrics metrics_one_vm_per_task(
    const dag::Workflow& wf, const cloud::Platform& platform,
    std::span<const cloud::InstanceSize> sizes) {
  return sim::compute_metrics(wf, retime_one_vm_per_task(wf, platform, sizes),
                              platform);
}

OneVmPerTaskRetimer::OneVmPerTaskRetimer(const dag::Workflow& wf,
                                         const cloud::Platform& platform)
    : wf_(&wf), platform_(&platform), structure_(wf.structure()) {
  transfer_.assign(structure_->edge_count() * kSizePairs, -1.0);
}

sim::ScheduleMetrics OneVmPerTaskRetimer::metrics(
    std::span<const cloud::InstanceSize> sizes) {
  const obs::SuppressRecording quiet;
  retime(sizes);
  return sim::compute_metrics(*wf_, *scratch_, *platform_);
}

util::Money OneVmPerTaskRetimer::cost(
    std::span<const cloud::InstanceSize> sizes) {
  const obs::SuppressRecording quiet;
  retime(sizes);
  // compute_metrics' total_cost is vm_cost + egress_cost; every scratch VM
  // lives in the default region, so egress is exactly Money{} and the same
  // rental_cost call is the whole total.
  return std::as_const(*scratch_).pool().rental_cost(platform_->regions());
}

void OneVmPerTaskRetimer::prime(std::span<const cloud::InstanceSize> sizes) {
  if (sizes.size() != wf_->task_count())
    throw std::invalid_argument("OneVmPerTaskRetimer::prime: size vector mismatch");
  inc_sizes_.assign(sizes.begin(), sizes.end());
  const std::size_t n = wf_->task_count();
  est_.resize(n);
  end_.resize(n);
  contrib_.assign(n, util::Money{});
  total_ = util::Money{};
  if (topo_pos_.size() != n) {
    topo_pos_.resize(n);
    const std::vector<dag::TaskId>& topo = structure_->topo_order();
    for (std::size_t i = 0; i < topo.size(); ++i) topo_pos_[topo[i]] = i;
    queued_.assign(n, 0);
    arrival_tree_.assign(2 * structure_->edge_count(), 0.0);
  }
  const cloud::Region& region = platform_->default_region();
  for (dag::TaskId t : structure_->topo_order()) {
    retime_task(t, /*resized=*/true);
    contrib_[t] = region.price(inc_sizes_[t]) * cloud::btus_for(end_[t] - est_[t]);
    total_ += contrib_[t];
  }
}

util::Money OneVmPerTaskRetimer::set_size(dag::TaskId task,
                                          cloud::InstanceSize size) {
  if (inc_sizes_.empty())
    throw std::logic_error("OneVmPerTaskRetimer::set_size: call prime() first");
  if (task >= inc_sizes_.size())
    throw std::invalid_argument("OneVmPerTaskRetimer::set_size: bad task");
  inc_sizes_[task] = size;

  const auto push = [this](dag::TaskId t) {
    if (queued_[t] == 0) {
      queued_[t] = 1;
      dirty_.push(topo_pos_[t]);
    }
  };
  // Seeds: the task itself (exec time and inbound transfers change) and its
  // direct successors (their inbound transfer from `task` is keyed on the
  // producer's size even when the producer's finish time stands still).
  push(task);
  for (dag::TaskId s : structure_->succs(task)) push(s);

  const cloud::Region& region = platform_->default_region();
  const std::vector<dag::TaskId>& topo = structure_->topo_order();
  while (!dirty_.empty()) {
    const dag::TaskId u = topo[dirty_.top()];
    dirty_.pop();
    queued_[u] = 0;
    const util::Seconds old_end = end_[u];
    retime_task(u, /*resized=*/u == task);
    // Recompute the contribution unconditionally: when nothing changed the
    // subtraction and re-addition cancel exactly (integer micro-dollars).
    total_ -= contrib_[u];
    contrib_[u] = region.price(inc_sizes_[u]) * cloud::btus_for(end_[u] - est_[u]);
    total_ += contrib_[u];
    // A successor's leaf for u is keyed on u's finish and on u's size.
    const bool moved = end_[u] != old_end;
    if (moved || u == task) refresh_out_arrivals(u);
    if (moved)
      for (dag::TaskId s : structure_->succs(u)) push(s);
  }
  return total_;
}

util::Seconds OneVmPerTaskRetimer::arrival(dag::TaskId t, std::size_t k) {
  const dag::TaskId p = structure_->preds(t)[k];
  util::Seconds& slot =
      transfer_[(structure_->pred_edge_slot(t) + k) * kSizePairs +
                cloud::index_of(inc_sizes_[p]) * cloud::kSizeCount +
                cloud::index_of(inc_sizes_[t])];
  if (slot < 0) {
    // Stand-in endpoints of the same sizes in the default region —
    // transfer_time depends on sizes and regions only, so the memoized
    // value equals the one retime() fills from scratch_'s VMs.
    const cloud::Vm from(0, inc_sizes_[p], platform_->default_region_id());
    const cloud::Vm to(1, inc_sizes_[t], platform_->default_region_id());
    slot = platform_->transfer_time(structure_->pred_data(t)[k], from, to);
  }
  return end_[p] + slot;
}

void OneVmPerTaskRetimer::refresh_out_arrivals(dag::TaskId u) {
  const std::span<const dag::TaskId> succs = structure_->succs(u);
  const std::span<const std::size_t> slots = structure_->succ_edge_slots(u);
  for (std::size_t i = 0; i < succs.size(); ++i) {
    const dag::TaskId s = succs[i];
    const std::size_t base = structure_->pred_edge_slot(s);
    const std::size_t k = slots[i] - base;
    util::Seconds* tree = arrival_tree_.data() + 2 * base;
    std::size_t node = structure_->preds(s).size() + k;
    tree[node] = arrival(s, k);
    for (node >>= 1; node >= 1; node >>= 1)
      tree[node] = std::max(tree[2 * node], tree[2 * node + 1]);
  }
}

void OneVmPerTaskRetimer::retime_task(dag::TaskId t, bool resized) {
  util::Seconds est =
      platform_->boot_delay(inc_sizes_[t], platform_->default_region_id());
  const std::size_t d = structure_->preds(t).size();
  if (d > 0) {
    util::Seconds* tree = arrival_tree_.data() + 2 * structure_->pred_edge_slot(t);
    if (resized) {
      for (std::size_t k = 0; k < d; ++k) tree[d + k] = arrival(t, k);
      for (std::size_t node = d - 1; node >= 1; --node)
        tree[node] = std::max(tree[2 * node], tree[2 * node + 1]);
    }
    est = std::max(est, tree[1]);
  }
  est_[t] = est;
  end_[t] = est + cloud::exec_time(wf_->task(t).work, inc_sizes_[t]);
}

void OneVmPerTaskRetimer::retime(std::span<const cloud::InstanceSize> sizes) {
  if (sizes.size() != wf_->task_count())
    throw std::invalid_argument("OneVmPerTaskRetimer: size vector mismatch");

  if (!scratch_) {
    // Scratch rents/placements are search work, not schedule construction —
    // keep them out of the trace so the placement counters still describe
    // the schedule being built (the accepted/rejected upgrades are traced by
    // the algorithms themselves via emit_upgrade).
    const obs::SuppressRecording quiet;
    scratch_.emplace(*wf_);
    for (std::size_t i = 0; i < sizes.size(); ++i)
      (void)scratch_->rent(cloud::InstanceSize::small,
                           platform_->default_region_id());
  }
  sim::Schedule& scratch = *scratch_;
  scratch.clear_assignments();
  cloud::VmPool& pool = scratch.pool();
  for (std::size_t i = 0; i < sizes.size(); ++i)
    pool.vm(static_cast<cloud::VmId>(i)).set_size(sizes[i]);

  // Under OneVMperTask every edge crosses two distinct VMs in the default
  // region, so the per-(edge, size pair) memo always applies; the memoized
  // value is the result of the identical transfer_time call, so retiming
  // stays bit-identical to retime_one_vm_per_task.
  const cloud::VmPool& cpool = std::as_const(pool);
  for (dag::TaskId t : structure_->topo_order()) {
    const cloud::Vm& vm = cpool.vm(static_cast<cloud::VmId>(t));
    util::Seconds est = platform_->boot_delay(vm.size(), vm.region());
    const std::span<const dag::TaskId> preds = structure_->preds(t);
    const std::span<const util::Gigabytes> data = structure_->pred_data(t);
    const std::size_t slot_base = structure_->pred_edge_slot(t);
    for (std::size_t k = 0; k < preds.size(); ++k) {
      const sim::Assignment& pa = scratch.assignment(preds[k]);
      util::Seconds& slot =
          transfer_[(slot_base + k) * kSizePairs +
                    cloud::index_of(cpool.vm(pa.vm).size()) * cloud::kSizeCount +
                    cloud::index_of(vm.size())];
      if (slot < 0)
        slot = platform_->transfer_time(data[k], cpool.vm(pa.vm), vm);
      est = std::max(est, pa.end + slot);
    }
    scratch.assign(t, vm.id(), est,
                   est + cloud::exec_time(wf_->task(t).work, vm.size()));
  }
}

}  // namespace cloudwf::scheduling
