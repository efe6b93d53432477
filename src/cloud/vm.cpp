#include "cloud/vm.hpp"

#include <algorithm>
#include <atomic>
#include <stdexcept>
#include <string>

#include "obs/work.hpp"

namespace cloudwf::cloud {

void Vm::set_size(InstanceSize s) {
  if (used())
    throw std::logic_error("Vm::set_size: cannot resize a VM with placements");
  size_ = s;
}

util::Seconds Vm::first_start() const noexcept {
  return placements_.empty() ? 0.0 : placements_.front().start;
}

util::Seconds Vm::available_from() const noexcept {
  return placements_.empty() ? 0.0 : placements_.back().end;
}

util::Seconds Vm::span() const noexcept { return available_from() - first_start(); }

std::vector<Vm::Session> Vm::sessions() const {
  // Replay of place()'s session logic over the placement timeline — the
  // same extend-or-open decisions in the same order, so the materialized
  // list is bitwise what the removed per-VM vector used to hold.
  std::vector<Session> out;
  out.reserve(session_count_);
  for (const Placement& p : placements_) {
    if (out.empty() || util::time_gt(p.start, out.back().paid_end()))
      out.push_back(Session{p.start, p.end});
    else
      out.back().end = p.end;
  }
  return out;
}

std::int64_t Vm::btus() const {
  return session_count_ == 0 ? 0 : closed_btus_ + last_session_.btus();
}

util::Seconds Vm::paid_time() const {
  return static_cast<util::Seconds>(btus()) * util::kBtu;
}

util::Seconds Vm::idle_time() const {
  return used() ? paid_time() - busy_time() : 0.0;
}

util::Money Vm::cost(const Region& region) const {
  return region.price(size_) * btus();
}

bool Vm::placement_adds_btu(util::Seconds start, util::Seconds end) const {
  if (!used()) return true;
  if (util::time_gt(start, last_session_.paid_end())) return true;  // new session
  return btus_for(end - last_session_.start) > last_session_.btus();
}

void Vm::place(dag::TaskId task, util::Seconds start, util::Seconds end) {
  if (task == dag::kInvalidTask)
    throw std::invalid_argument("Vm::place: invalid task");
  if (start < -util::kTimeEpsilon || end < start - util::kTimeEpsilon)
    throw std::invalid_argument("Vm::place: bad interval");
  if (util::time_gt(available_from(), start))
    throw std::logic_error("Vm::place: overlaps previous placement (append-only)");

  if (session_count_ == 0 || util::time_gt(start, last_session_.paid_end())) {
    // A closed session's span is final — fold its BTUs into the running sum
    // (same int64 addition order as summing the historical session list).
    if (session_count_ > 0) closed_btus_ += last_session_.btus();
    last_session_ = Session{start, end};
    ++session_count_;
  } else {
    last_session_.end = end;
  }
  placements_.push_back(Placement{task, start, end});
  busy_time_ += end - start;  // same addition order as the historical re-sum
}

namespace {
// Index verification (tests): every reuse_order() query re-sorts from
// scratch and compares against the incrementally maintained index.
std::atomic<bool> g_verify_index{false};

/// Treap priority of a VM id: splitmix64's finalizer, a bijection, so no
/// two ids tie and the tree's shape depends on the contents alone.
std::uint64_t priority(VmId id) noexcept {
  std::uint64_t z = (static_cast<std::uint64_t>(id) + 1) * 0x9e3779b97f4a7c15ULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}
}  // namespace

std::uint64_t ReuseOrder::assign(std::span<const VmId> sorted,
                                 std::span<const Vm> vms) {
  root_ = head_ = kInvalidVm;
  if (nodes_.size() < vms.size()) nodes_.resize(vms.size());
  // In-order input: the treap is the Cartesian tree of the priorities,
  // built along its right spine in one pass.
  std::vector<VmId> spine;
  VmId prev = kInvalidVm;
  for (const VmId id : sorted) {
    Node& n = nodes_[id];
    n.busy = vms[id].busy_time();
    n.prev = prev;
    n.next = kInvalidVm;
    n.right = kInvalidVm;
    n.left = kInvalidVm;
    (prev != kInvalidVm ? nodes_[prev].next : head_) = id;
    prev = id;
    while (!spine.empty() && priority(spine.back()) < priority(id)) {
      n.left = spine.back();
      spine.pop_back();
    }
    if (!spine.empty()) nodes_[spine.back()].right = id;
    spine.push_back(id);
  }
  root_ = spine.empty() ? kInvalidVm : spine.front();
  return sorted.size();
}

std::uint64_t ReuseOrder::insert(VmId id, util::Seconds busy) {
  if (nodes_.size() <= id) nodes_.resize(static_cast<std::size_t>(id) + 1);
  nodes_[id].busy = busy;
  // Descend while the subtree root outranks `id`; the in-order neighbours
  // are the last nodes the search path leaves to the right and to the left.
  const std::uint64_t rank = priority(id);
  VmId pred = kInvalidVm, succ = kInvalidVm;
  VmId* link = &root_;
  while (*link != kInvalidVm && priority(*link) > rank) {
    const VmId at = *link;
    if (before(id, busy, at)) {
      succ = at;
      link = &nodes_[at].left;
    } else {
      pred = at;
      link = &nodes_[at].right;
    }
  }
  // `id` takes this link; the subtree it displaces splits around its key
  // into its left (preceding) and right (following) children.
  VmId rest = *link;
  *link = id;
  VmId* lo = &nodes_[id].left;
  VmId* hi = &nodes_[id].right;
  std::uint64_t moved = 1;
  for (; rest != kInvalidVm; ++moved) {
    const VmId at = rest;
    if (before(id, busy, at)) {
      *hi = at;
      hi = &nodes_[at].left;
      rest = *hi;
      succ = at;
    } else {
      *lo = at;
      lo = &nodes_[at].right;
      rest = *lo;
      pred = at;
    }
  }
  *lo = kInvalidVm;
  *hi = kInvalidVm;

  nodes_[id].prev = pred;
  nodes_[id].next = succ;
  (pred != kInvalidVm ? nodes_[pred].next : head_) = id;
  if (succ != kInvalidVm) nodes_[succ].prev = id;
  return moved;
}

std::uint64_t ReuseOrder::erase(VmId id) {
  const util::Seconds busy = nodes_[id].busy;
  VmId* link = &root_;
  while (*link != id) {
    const VmId at = *link;
    if (at == kInvalidVm)
      throw std::logic_error("ReuseOrder::erase: vm " + std::to_string(id) +
                             " is not indexed");
    link = before(id, busy, at) ? &nodes_[at].left : &nodes_[at].right;
  }
  // Its children merge into its link along their facing spines.
  VmId a = nodes_[id].left, b = nodes_[id].right;
  std::uint64_t moved = 0;
  for (; a != kInvalidVm && b != kInvalidVm; ++moved) {
    if (priority(a) > priority(b)) {
      *link = a;
      link = &nodes_[a].right;
      a = *link;
    } else {
      *link = b;
      link = &nodes_[b].left;
      b = *link;
    }
  }
  *link = a != kInvalidVm ? a : b;

  const VmId prev = nodes_[id].prev, next = nodes_[id].next;
  (prev != kInvalidVm ? nodes_[prev].next : head_) = next;
  if (next != kInvalidVm) nodes_[next].prev = prev;
  return moved;
}

std::uint64_t ReuseOrder::raise(VmId id, util::Seconds busy) {
  // A larger key that still follows the predecessor keeps every ordering
  // relation of the tree: rewrite it in place.
  const VmId prev = nodes_[id].prev;
  if (prev == kInvalidVm || !before(id, busy, prev)) {
    nodes_[id].busy = busy;
    return 0;
  }
  const std::uint64_t moved = erase(id);
  return moved + insert(id, busy);
}

bool ReuseOrder::consistent(std::span<const Vm> vms) const {
  std::vector<VmId> in_order;
  std::vector<VmId> stack;
  for (VmId at = root_; at != kInvalidVm || !stack.empty();) {
    if (at != kInvalidVm) {
      for (const VmId child : {nodes_[at].left, nodes_[at].right})
        if (child != kInvalidVm && priority(child) > priority(at)) return false;
      stack.push_back(at);
      at = nodes_[at].left;
      continue;
    }
    at = stack.back();
    stack.pop_back();
    in_order.push_back(at);
    at = nodes_[at].right;
  }
  VmId prev = kInvalidVm;
  auto threaded = begin();
  for (const VmId id : in_order) {
    if (threaded == end() || *threaded != id || nodes_[id].prev != prev ||
        nodes_[id].busy != vms[id].busy_time())
      return false;
    prev = id;
    ++threaded;
  }
  return threaded == end();
}

void VmPool::set_index_verification(bool on) noexcept {
  g_verify_index.store(on, std::memory_order_relaxed);
}

Vm& VmPool::rent(InstanceSize size, RegionId region) {
  // A fresh VM is unused, so the reuse index is unaffected.
  vms_.emplace_back(static_cast<VmId>(vms_.size()), size, region);
  return vms_.back();
}

Vm& VmPool::vm(VmId id) {
  if (id >= vms_.size()) throw std::out_of_range("VmPool::vm: bad id");
  reuse_dirty_ = true;
  ++mutation_epoch_;
  return vms_[id];
}

const Vm& VmPool::vm(VmId id) const {
  if (id >= vms_.size()) throw std::out_of_range("VmPool::vm: bad id");
  return vms_[id];
}

std::size_t VmPool::used_count() const noexcept {
  std::size_t n = 0;
  for (const Vm& v : vms_)
    if (v.used()) ++n;
  return n;
}

util::Money VmPool::rental_cost(std::span<const Region> regions) const {
  util::Money total;
  for (const Vm& v : vms_) total += v.cost(regions[v.region()]);
  return total;
}

util::Seconds VmPool::total_idle_time() const {
  util::Seconds idle = 0;
  for (const Vm& v : vms_) idle += v.idle_time();
  return idle;
}

void VmPool::clear_placements() noexcept {
  for (Vm& v : vms_) v.clear();
  placement_log_.clear();
  reuse_dirty_ = true;  // index empties; rebuilt lazily if queried again
  ++mutation_epoch_;
}

void VmPool::place(VmId id, dag::TaskId task, util::Seconds start,
                   util::Seconds end) {
  if (id >= vms_.size()) throw std::out_of_range("VmPool::place: bad id");
  Vm& v = vms_[id];
  const bool first_use = !v.used();
  v.place(task, start, end);
  placement_log_.push_back(id);
  if (reuse_dirty_) return;  // the next query builds it from scratch

  // A placement only grows busy time, so an indexed VM can only move
  // forward in the (busy desc, id asc) order.
  const std::uint64_t moved = first_use
                                  ? reuse_index_.insert(id, v.busy_time())
                                  : reuse_index_.raise(id, v.busy_time());
  if (moved != 0) obs::add_work(obs::Work::reuse_slots_moved, moved);
}

std::vector<VmId> VmPool::sorted_used_ids() const {
  std::vector<VmId> ids;
  for (const Vm& v : vms_)
    if (v.used()) ids.push_back(v.id());
  std::sort(ids.begin(), ids.end(), [this](VmId a, VmId b) {
    const util::Seconds ba = vms_[a].busy_time(), bb = vms_[b].busy_time();
    if (ba != bb) return ba > bb;
    return a < b;
  });
  return ids;
}

const ReuseOrder& VmPool::reuse_order() const {
  if (reuse_dirty_) {
    const std::vector<VmId> sorted = sorted_used_ids();
    obs::add_work(obs::Work::reuse_slots_moved,
                  reuse_index_.assign(sorted, vms_));
    reuse_dirty_ = false;
  }
  if (g_verify_index.load(std::memory_order_relaxed)) {
    const std::vector<VmId> incremental(reuse_index_.begin(), reuse_index_.end());
    const std::vector<VmId> fresh = sorted_used_ids();
    if (incremental != fresh || !reuse_index_.consistent(vms_))
      throw std::logic_error(
          "VmPool::reuse_order: incremental index diverged from linear sort "
          "(" +
          std::to_string(incremental.size()) + " vs " +
          std::to_string(fresh.size()) + " used VMs)");
  }
  return reuse_index_;
}

}  // namespace cloudwf::cloud
