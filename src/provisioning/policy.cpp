#include "provisioning/policy.hpp"

#include <algorithm>
#include <atomic>
#include <optional>
#include <stdexcept>
#include <string>

#include "provisioning/detail.hpp"

namespace cloudwf::provisioning {

namespace {
constexpr std::size_t kSizePairs = cloud::kSizeCount * cloud::kSizeCount;

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
      region_(platform.default_region_id()) {
  transfer_.assign(structure_->edge_count() * kSizePairs, -1.0);
}

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

util::Seconds PlacementContext::transfer_cached(std::size_t edge_slot,
                                                util::Gigabytes data,
                                                const cloud::Vm& from,
                                                const cloud::Vm& to) const {
  // Same-VM transfers are exactly zero (TransferModel::time's first case).
  if (from.id() == to.id()) return 0.0;
  // The memo covers the overwhelmingly common default-region pair; anything
  // exotic falls through to the model.
  if (from.region() != region_ || to.region() != region_)
    return platform_->transfer_time(data, from, to);
  util::Seconds& slot =
      transfer_[edge_slot * kSizePairs +
                cloud::index_of(from.size()) * cloud::kSizeCount +
                cloud::index_of(to.size())];
  if (slot < 0) slot = platform_->transfer_time(data, from, to);
  return slot;
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
  const std::size_t slot_base = structure_->pred_edge_slot(t);
  const sim::Schedule& schedule = *schedule_;
  const cloud::VmPool& vms = pool();
  for (std::size_t i = 0; i < preds.size(); ++i) {
    const dag::TaskId p = preds[i];
    if (!schedule.is_assigned(p))
      throw std::logic_error("est_on: predecessor '" + wf_->task(p).name +
                             "' not yet assigned");
    const sim::Assignment& pa = schedule.assignment(p);
    const util::Seconds transfer =
        transfer_cached(slot_base + i, data[i], vms.vm(pa.vm), vm);
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

cloud::VmId PlacementContext::best_parallel_reuse(dag::TaskId t, bool exceed) {
  const cloud::VmPool& pool = this->pool();
  const int level = structure_->levels()[t];
  const std::uint64_t epoch = pool.mutation_epoch();
  const std::vector<cloud::VmId>& log = pool.placement_log();

  bool rebuild = !scan_valid_ || scan_epoch_ != epoch || scan_level_ != level;
  if (!rebuild) {
    // Fold placements since the last scan. A same-level placement turned
    // its VM into a host of this level — the walk below unlinks it — and a
    // surviving candidate's busy time is untouched, so the snapshot order
    // stays exact. Anything else (a caller interleaving levels grew a
    // candidate's busy time, or put a fresh VM into use) invalidates the
    // snapshot's order: rebuild.
    for (; scan_log_cursor_ < log.size(); ++scan_log_cursor_) {
      const cloud::Vm& v = pool.vm(log[scan_log_cursor_]);
      if (vm_hosts_level_of(v, t)) continue;
      if (v.id() < scan_in_list_.size() && scan_in_list_[v.id()] != 0 &&
          v.busy_time() == scan_busy_[v.id()])
        continue;  // zero-growth append: order unchanged
      rebuild = true;
      break;
    }
  }

  if (rebuild) {
    const std::span<const cloud::VmId> order = pool.reuse_order();
    scan_next_.assign(pool.size(), cloud::kInvalidVm);
    scan_busy_.resize(pool.size());
    scan_in_list_.assign(pool.size(), 0);
    scan_head_ = cloud::kInvalidVm;
    cloud::VmId* tail = &scan_head_;
    for (const cloud::VmId id : order) {
      *tail = id;
      tail = &scan_next_[id];
      scan_busy_[id] = pool.vm(id).busy_time();
      scan_in_list_[id] = 1;
    }
    scan_level_ = level;
    scan_epoch_ = epoch;
    scan_log_cursor_ = log.size();
    scan_valid_ = true;
  }

  // Walk the survivors in (busy desc, id asc) order — exactly the
  // reuse_order() walk with the already-detected hosts of this level
  // removed. Hosts met for the first time are unlinked as we pass.
  //
  // The BTU test first tries a lower bound on est_on(t, vm): the max of the
  // VM's free time, its boot delay and `ready`, the predecessors' latest
  // finish. est_on adds a nonnegative transfer to every finish, so it is
  // never below the bound, and placement_adds_btu is monotone in its
  // start: a VM that already adds a BTU at the bound is skipped without
  // est_on's walk over the predecessors. `ready` is read once per query,
  // on the first VM that needs it.
  std::optional<util::Seconds> ready;
  cloud::VmId winner = cloud::kInvalidVm;
  cloud::VmId* link = &scan_head_;
  while (*link != cloud::kInvalidVm) {
    const cloud::Vm& vm = pool.vm(*link);
    if (vm_hosts_level_of(vm, t)) {  // hosts the level: gone for good
      scan_in_list_[*link] = 0;
      *link = scan_next_[vm.id()];
      continue;
    }
    if (!exceed) {
      if (!ready) ready = predecessors_ready(t);
      const util::Seconds exec = exec_time(t, vm.size());
      const util::Seconds bound =
          std::max({vm.available_from(),
                    platform_->boot_delay(vm.size(), vm.region()), *ready});
      bool adds_btu = vm.placement_adds_btu(bound, bound + exec);
      if (!adds_btu) {
        const util::Seconds est = est_on(t, vm);
        adds_btu = vm.placement_adds_btu(est, est + exec);
      }
      if (adds_btu) {
        link = &scan_next_[vm.id()];  // BTU admissibility is per-task: keep
        continue;
      }
    }
    winner = vm.id();
    break;
  }

  if (g_verify_scan.load(std::memory_order_relaxed)) {
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
