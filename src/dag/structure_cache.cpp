#include "dag/structure_cache.hpp"

#include <algorithm>
#include <queue>
#include <stdexcept>

namespace cloudwf::dag {

StructureCache::StructureCache(const Workflow& wf) : n_(wf.task_count()) {
  pred_off_.assign(n_ + 1, 0);
  succ_off_.assign(n_ + 1, 0);
  for (std::size_t i = 0; i < n_; ++i) {
    const auto t = static_cast<TaskId>(i);
    pred_off_[i + 1] = pred_off_[i] + wf.predecessors(t).size();
    succ_off_[i + 1] = succ_off_[i] + wf.successors(t).size();
  }
  // One pass over the edge list fills both directions. Workflow::add_edge
  // appends each edge to its producer's successor list and its consumer's
  // predecessor list, so edge-list order is every adjacency list's order,
  // and a running cursor per task gives each edge its position in both.
  const std::size_t edges = pred_off_[n_];
  pred_flat_.resize(edges);
  pred_data_.resize(edges);
  succ_flat_.resize(edges);
  succ_data_.resize(edges);
  succ_slot_.resize(edges);
  std::vector<std::size_t> pred_fill(pred_off_.begin(), pred_off_.end() - 1);
  std::vector<std::size_t> succ_fill(succ_off_.begin(), succ_off_.end() - 1);
  for (const Edge& e : wf.edges()) {
    const util::Gigabytes data = wf.edge_data(e);
    const std::size_t in = pred_fill[e.to]++;
    const std::size_t out = succ_fill[e.from]++;
    pred_flat_[in] = e.from;
    pred_data_[in] = data;
    succ_flat_[out] = e.to;
    succ_data_[out] = data;
    succ_slot_[out] = in;
  }

  // Kahn with a min-id heap — the same algorithm as the historical
  // dag::topological_order, so the order (and everything derived from it)
  // is bit-identical.
  {
    std::vector<std::size_t> indeg(n_);
    for (std::size_t i = 0; i < n_; ++i)
      indeg[i] = pred_off_[i + 1] - pred_off_[i];
    std::priority_queue<TaskId, std::vector<TaskId>, std::greater<>> ready;
    for (std::size_t i = 0; i < n_; ++i)
      if (indeg[i] == 0) ready.push(static_cast<TaskId>(i));
    topo_.reserve(n_);
    while (!ready.empty()) {
      const TaskId cur = ready.top();
      ready.pop();
      topo_.push_back(cur);
      for (TaskId s : succs(cur))
        if (--indeg[s] == 0) ready.push(s);
    }
    if (topo_.size() != n_)
      throw std::logic_error("topological_order: graph has a cycle");
  }

  levels_.assign(n_, 0);
  for (TaskId t : topo_)
    for (TaskId p : preds(t)) levels_[t] = std::max(levels_[t], levels_[p] + 1);

  const int max_level =
      levels_.empty() ? -1 : *std::max_element(levels_.begin(), levels_.end());
  level_sizes_.assign(static_cast<std::size_t>(max_level + 1), 0);
  for (int l : levels_) ++level_sizes_[static_cast<std::size_t>(l)];
  groups_.resize(level_sizes_.size());
  for (std::size_t l = 0; l < level_sizes_.size(); ++l)
    groups_[l].reserve(level_sizes_[l]);
  for (std::size_t i = 0; i < n_; ++i)
    groups_[static_cast<std::size_t>(levels_[i])].push_back(
        static_cast<TaskId>(i));  // ids ascend within a level because i ascends
  for (const auto& g : groups_) max_width_ = std::max(max_width_, g.size());

  works_.reserve(n_);
  for (const Task& t : wf.tasks()) works_.push_back(t.work);

  largest_pred_.assign(n_, kInvalidTask);
  for (std::size_t i = 0; i < n_; ++i) {
    const auto ps = preds(static_cast<TaskId>(i));
    if (ps.empty()) continue;
    TaskId best = ps.front();
    for (TaskId p : ps) {
      if (works_[p] > works_[best] || (works_[p] == works_[best] && p < best))
        best = p;
    }
    largest_pred_[i] = best;
  }
}

const std::vector<std::vector<TaskId>>& StructureCache::levels_by_work_desc() const {
  std::scoped_lock lock(memo_mu_);
  if (work_desc_.empty() && !groups_.empty()) {
    work_desc_ = groups_;
    for (auto& level : work_desc_) {
      std::sort(level.begin(), level.end(), [&](TaskId x, TaskId y) {
        if (works_[x] != works_[y]) return works_[x] > works_[y];
        return x < y;
      });
    }
  }
  return work_desc_;
}

const std::vector<double>& StructureCache::upward_rank_memo(
    std::uint64_t key, const ExecTimeFn& exec, const CommTimeFn& comm) const {
  {
    std::scoped_lock lock(memo_mu_);
    const auto it = rank_memo_.find(key);
    if (it != rank_memo_.end()) return it->second;
  }
  // Compute outside the lock: exec/comm are caller callbacks. Two threads
  // racing on one key produce the same deterministic vector; try_emplace
  // keeps the first.
  std::vector<double> rank = upward_rank(
      exec, [&comm](TaskId from, TaskId to, std::size_t) { return comm(from, to); });
  std::scoped_lock lock(memo_mu_);
  return rank_memo_.try_emplace(key, std::move(rank)).first->second;
}

const std::vector<TaskId>& StructureCache::heft_order_memo(
    std::uint64_t key, const ExecTimeFn& exec, const CommTimeFn& comm) const {
  {
    std::scoped_lock lock(memo_mu_);
    const auto it = order_memo_.find(key);
    if (it != order_memo_.end()) return it->second;
  }
  const std::vector<double>& rank = upward_rank_memo(key, exec, comm);
  std::vector<TaskId> order(n_);
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = static_cast<TaskId>(i);
  std::stable_sort(order.begin(), order.end(), [&](TaskId a, TaskId b) {
    if (rank[a] != rank[b]) return rank[a] > rank[b];
    return a < b;
  });
  std::scoped_lock lock(memo_mu_);
  return order_memo_.try_emplace(key, std::move(order)).first->second;
}

}  // namespace cloudwf::dag
