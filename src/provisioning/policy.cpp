#include "provisioning/policy.hpp"

#include <algorithm>
#include <atomic>
#include <bit>
#include <limits>
#include <optional>
#include <stdexcept>
#include <string>

#include "obs/work.hpp"
#include "provisioning/detail.hpp"

namespace cloudwf::provisioning {

namespace {
constexpr std::size_t kNoSlot = std::numeric_limits<std::uint32_t>::max();
constexpr util::Seconds kInf = std::numeric_limits<util::Seconds>::infinity();

// How far past a VM's paid window a lower bound on the task's finish must
// reach before best_parallel_reuse skips the VM unvisited. BTU arithmetic
// decides at kTimeEpsilon (1e-6 s) and rounding errs by far less, so a
// second-wide margin leaves every close call to the exact test.
constexpr util::Seconds kSkipMargin = 1.0;

// Scan verification (tests): every best_parallel_reuse answer is compared
// against the historical linear walk over reuse_order().
std::atomic<bool> g_verify_scan{false};
}  // namespace

PlacementContext::PlacementContext(const dag::Workflow& wf, sim::Schedule& schedule,
                                   const cloud::Platform& platform,
                                   cloud::InstanceSize vm_size)
    : wf_(&wf),
      schedule_(&schedule),
      platform_(&platform),
      structure_(wf.structure()),
      vm_size_(vm_size),
      region_(platform.default_region_id()) {}

const std::vector<util::Seconds>& PlacementContext::fill_exec_table(
    cloud::InstanceSize s) const {
  std::vector<util::Seconds>& table = exec_[cloud::index_of(s)];
  const std::vector<util::Seconds>& works = structure_->works();
  table.reserve(works.size());
  // Element-wise cloud::exec_time (a division) — not a reciprocal multiply,
  // which would not be bit-identical.
  for (util::Seconds w : works) table.push_back(cloud::exec_time(w, s));
  return table;
}

void PlacementContext::refresh_occupancy(const cloud::Vm& vm) const {
  // Incremental maintenance is only sound while placements grow append-only
  // (VmPool::place); any other pool mutation bumps the epoch and the whole
  // table starts over.
  const std::uint64_t epoch = pool().mutation_epoch();
  if (epoch != occupancy_epoch_) {
    vm_levels_.clear();
    vm_cursor_.clear();
    occupancy_epoch_ = epoch;
  }
  const std::size_t level_count = structure_->level_sizes().size();
  const std::size_t needed = (vm.id() + 1) * level_count;
  if (vm_levels_.size() < needed) {
    vm_levels_.resize(needed, 0);
    vm_cursor_.resize(vm.id() + 1, 0);
  }
  const auto& placements = vm.placements();
  std::uint32_t& cursor = vm_cursor_[vm.id()];
  char* row = vm_levels_.data() + vm.id() * level_count;
  const std::vector<int>& levels = structure_->levels();
  for (; cursor < placements.size(); ++cursor)
    row[static_cast<std::size_t>(levels[placements[cursor].task])] = 1;
}

bool PlacementContext::vm_hosts_level_of(const cloud::Vm& vm, dag::TaskId t) const {
  if (vm.id() == cloud::kInvalidVm || vm.placements().empty())
    return false;  // hypothetical or fresh VM hosts nothing
  refresh_occupancy(vm);
  const std::size_t level_count = structure_->level_sizes().size();
  return vm_levels_[vm.id() * level_count +
                    static_cast<std::size_t>(structure_->levels()[t])] != 0;
}

util::Seconds PlacementContext::est_on(dag::TaskId t, const cloud::Vm& vm) const {
  util::Seconds est = std::max(vm.available_from(),
                               platform_->boot_delay(vm.size(), vm.region()));
  const std::span<const dag::TaskId> preds = structure_->preds(t);
  const std::span<const util::Gigabytes> data = structure_->pred_data(t);
  const sim::Schedule& schedule = *schedule_;
  const cloud::VmPool& vms = pool();
  for (std::size_t i = 0; i < preds.size(); ++i) {
    const dag::TaskId p = preds[i];
    if (!schedule.is_assigned(p))
      throw std::logic_error("est_on: predecessor '" + wf_->task(p).name +
                             "' not yet assigned");
    const sim::Assignment& pa = schedule.assignment(p);
    const util::Seconds transfer =
        platform_->transfer_time(data[i], vms.vm(pa.vm), vm);
    est = std::max(est, pa.end + transfer);
  }
  return est;
}

util::Seconds PlacementContext::predecessors_ready(dag::TaskId t) const {
  util::Seconds ready = 0.0;
  const sim::Schedule& schedule = *schedule_;
  for (const dag::TaskId p : structure_->preds(t)) {
    if (!schedule.is_assigned(p))
      throw std::logic_error("est_on: predecessor '" + wf_->task(p).name +
                             "' not yet assigned");
    ready = std::max(ready, schedule.assignment(p).end);
  }
  return ready;
}

util::Seconds PlacementContext::est_on_new(dag::TaskId t) const {
  // A hypothetical endpoint: kInvalidVm never equals an existing id, so the
  // transfer model treats it as a distinct machine in the default region.
  const cloud::Vm fresh(cloud::kInvalidVm, vm_size_, region_);
  return est_on(t, fresh);
}

std::optional<dag::TaskId> PlacementContext::largest_predecessor(
    dag::TaskId t) const {
  const dag::TaskId best = structure_->largest_pred(t);
  if (best == dag::kInvalidTask) return std::nullopt;
  return best;
}

void PlacementContext::set_scan_verification(bool on) noexcept {
  g_verify_scan.store(on, std::memory_order_relaxed);
}

bool PlacementContext::scan_verification() noexcept {
  return g_verify_scan.load(std::memory_order_relaxed);
}

bool PlacementContext::reuse_is_admissible(dag::TaskId t, const cloud::Vm& vm,
                                           bool exceed) const {
  if (vm_hosts_level_of(vm, t)) return false;
  if (!exceed) {
    const util::Seconds est = est_on(t, vm);
    if (vm.placement_adds_btu(est, est + exec_time(t, vm.size()))) return false;
  }
  return true;
}

cloud::VmId PlacementContext::linear_parallel_reuse(dag::TaskId t,
                                                    bool exceed) const {
  for (cloud::VmId id : pool().reuse_order())
    if (reuse_is_admissible(t, pool().vm(id), exceed)) return id;
  return cloud::kInvalidVm;
}

PlacementContext::WindowKey PlacementContext::window_key(
    const cloud::Vm& vm) const {
  // last_session().end is the VM's free time (available_from()).
  const cloud::Vm::Session& session = vm.last_session();
  const util::Seconds paid_end = session.paid_end();
  const util::Seconds own_start =
      std::max(session.end, platform_->boot_delay(vm.size(), vm.region()));
  return {paid_end, paid_end - own_start};
}

void PlacementContext::pull_window(std::size_t node) {
  const WindowKey& l = window_tree_[2 * node];
  const WindowKey& r = window_tree_[2 * node + 1];
  window_tree_[node] = {std::max(l.paid_end, r.paid_end),
                        std::max(l.slack, r.slack)};
}

void PlacementContext::set_window(std::size_t pos, WindowKey key) {
  std::size_t node = window_leaves_ + pos;
  window_tree_[node] = key;
  for (node /= 2; node > 0; node /= 2) pull_window(node);
}

std::size_t PlacementContext::first_window_candidate(
    std::size_t from, util::Seconds min_slack,
    util::Seconds min_paid_end) const {
  // Depth-first over the subtrees right of `from`, entering only those
  // whose maxima pass both bounds (neither is ever met by a dead leaf).
  if (from >= window_leaves_) return kNoSlot;
  const auto passes = [&](std::size_t node) {
    return window_tree_[node].slack > min_slack &&
           window_tree_[node].paid_end > min_paid_end;
  };
  std::size_t node = window_leaves_ + from;
  for (;;) {
    if (passes(node)) {
      if (node >= window_leaves_) return node - window_leaves_;
      node *= 2;
      continue;
    }
    while (node % 2 == 1) node /= 2;  // climb out of right children
    if (node == 0) return kNoSlot;
    ++node;
  }
}

cloud::VmId PlacementContext::best_parallel_reuse(dag::TaskId t, bool exceed) {
  const cloud::VmPool& pool = this->pool();
  const int level = structure_->levels()[t];
  const std::uint64_t epoch = pool.mutation_epoch();
  const std::vector<cloud::VmId>& log = pool.placement_log();

  bool rebuild = !scan_valid_ || scan_epoch_ != epoch || scan_level_ != level;
  if (!rebuild) {
    // Fold placements since the last query. A same-level placement turned
    // its VM into a host of this level: its leaf dies. An append that left
    // a candidate's busy time unchanged keeps the order but may have moved
    // its paid window (a zero-length placement can open a new session):
    // its leaf is re-keyed. Anything else (a caller interleaving levels
    // grew a candidate's busy time, or put a fresh VM into use) invalidates
    // the snapshot's order: rebuild.
    for (; scan_log_cursor_ < log.size(); ++scan_log_cursor_) {
      const cloud::Vm& v = pool.vm(log[scan_log_cursor_]);
      const std::size_t pos =
          v.id() < scan_pos_.size() ? scan_pos_[v.id()] : kNoSlot;
      if (vm_hosts_level_of(v, t)) {
        if (pos != kNoSlot) set_window(pos, kDeadWindow);
        continue;
      }
      if (pos != kNoSlot && v.busy_time() == scan_busy_[v.id()]) {
        set_window(pos, window_key(v));
        continue;
      }
      rebuild = true;
      break;
    }
  }

  if (rebuild) {
    const cloud::ReuseOrder& order = pool.reuse_order();
    scan_ids_.assign(order.begin(), order.end());
    scan_pos_.assign(pool.size(), kNoSlot);
    scan_busy_.resize(pool.size());
    scan_sizes_ = 0;
    window_leaves_ = std::bit_ceil(std::max<std::size_t>(scan_ids_.size(), 1));
    window_tree_.assign(2 * window_leaves_, kDeadWindow);
    for (std::size_t i = 0; i < scan_ids_.size(); ++i) {
      const cloud::Vm& vm = pool.vm(scan_ids_[i]);
      scan_pos_[vm.id()] = static_cast<std::uint32_t>(i);
      scan_busy_[vm.id()] = vm.busy_time();
      scan_sizes_ |= 1u << cloud::index_of(vm.size());
      if (!vm_hosts_level_of(vm, t))
        window_tree_[window_leaves_ + i] = window_key(vm);
    }
    for (std::size_t node = window_leaves_ - 1; node > 0; --node)
      pull_window(node);
    scan_level_ = level;
    scan_epoch_ = epoch;
    scan_log_cursor_ = log.size();
    scan_valid_ = true;
  }

  // The live leaves, in (busy desc, id asc) order, are exactly the
  // snapshot's VMs that do not host the level. Exceed takes the first.
  //
  // NotExceed skips, unvisited, every VM whose reuse certainly adds a BTU.
  // Any start there is at least `ready` (the predecessors' latest finish)
  // and at least the VM's own free/boot time, and any exec time is at least
  // `exec`, the fastest one among the snapshot's sizes. A VM whose window
  // ends at least kSkipMargin before either bound plus `exec` therefore
  // finishes past its paid window: a new session or a grown BTU, whatever
  // placement_adds_btu's epsilon and rounding decide. The margin dwarfs
  // both, so no skip rests on them.
  //
  // Each VM the descent reaches is still decided by the exact tests: first
  // a lower bound on est_on (the max of the VM's free time, its boot delay
  // and `ready` — est_on adds a nonnegative transfer to every finish, and
  // placement_adds_btu is monotone in its start), then est_on itself.
  // `ready` is read once per query, and only when some candidate is live.
  util::Seconds min_slack = -kInf, min_paid_end = -kInf;
  util::Seconds ready = 0.0;
  if (!exceed && window_tree_[1].paid_end > -kInf) {
    ready = predecessors_ready(t);
    util::Seconds exec = kInf;
    for (const cloud::InstanceSize s : cloud::kAllSizes)
      if (scan_sizes_ & (1u << cloud::index_of(s)))
        exec = std::min(exec, exec_time(t, s));
    min_slack = exec - kSkipMargin;
    min_paid_end = ready + exec - kSkipMargin;
  }

  cloud::VmId winner = cloud::kInvalidVm;
  std::uint64_t examined = 0;
  for (std::size_t pos = first_window_candidate(0, min_slack, min_paid_end);
       pos != kNoSlot;
       pos = first_window_candidate(pos + 1, min_slack, min_paid_end)) {
    const cloud::Vm& vm = pool.vm(scan_ids_[pos]);
    if (!exceed) {
      ++examined;
      const util::Seconds exec = exec_time(t, vm.size());
      const util::Seconds bound =
          std::max({vm.available_from(),
                    platform_->boot_delay(vm.size(), vm.region()), ready});
      bool adds_btu = vm.placement_adds_btu(bound, bound + exec);
      if (!adds_btu) {
        const util::Seconds est = est_on(t, vm);
        adds_btu = vm.placement_adds_btu(est, est + exec);
      }
      if (adds_btu) continue;  // BTU admissibility is per-task: stays live
    }
    winner = vm.id();
    break;
  }
  if (examined != 0) obs::add_work(obs::Work::reuse_vms_examined, examined);

  if (scan_verification()) {
    const cloud::VmId reference = linear_parallel_reuse(t, exceed);
    if (reference != winner)
      throw std::logic_error(
          "PlacementContext::best_parallel_reuse: indexed answer " +
          std::to_string(winner) + " diverged from linear scan " +
          std::to_string(reference) + " for task " + std::to_string(t));
  }
  return winner;
}

std::unique_ptr<ProvisioningPolicy> make_policy(ProvisioningKind kind) {
  switch (kind) {
    case ProvisioningKind::one_vm_per_task:
      return std::make_unique<OneVmPerTask>();
    case ProvisioningKind::start_par_not_exceed:
      return std::make_unique<StartPar>(/*exceed=*/false);
    case ProvisioningKind::start_par_exceed:
      return std::make_unique<StartPar>(/*exceed=*/true);
    case ProvisioningKind::all_par_not_exceed:
      return std::make_unique<AllPar>(/*exceed=*/false);
    case ProvisioningKind::all_par_exceed:
      return std::make_unique<AllPar>(/*exceed=*/true);
  }
  throw std::invalid_argument("make_policy: unknown kind");
}

}  // namespace cloudwf::provisioning
