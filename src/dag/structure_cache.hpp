// StructureCache: every structure-derived quantity the schedulers need,
// computed once per Workflow instance and shared across strategies, seeds
// and threads (the flat-core optimisation layer).
//
// A workflow's structure is immutable while schedulers run, yet the naive
// code paths recompute topological order, levels, level groups and HEFT
// ranks per run — 19 times per sweep cell, once per seed. The cache folds
// all of that into one build: CSR predecessor/successor adjacency with the
// per-edge data sizes already resolved (no more edge_index_ hash lookups in
// est_on), the deterministic Kahn topological order, the paper's level
// ranking with per-level sizes and groups, the largest predecessor of every
// task, and key-addressed memo tables for HEFT upward ranks / orders so a
// strategy family that shares a cost model ranks the DAG exactly once.
//
// Every value is bit-identical to the uncached algorithm it replaces: the
// builders run the same loops in the same order. Tests in
// tests/dag/structure_cache_test.cpp assert this equivalence property for
// the paper workflows and randomized DAGs.
//
// Thread safety: the eager fields are immutable after construction; the
// memo tables are guarded by a mutex and store into node-stable std::map
// entries, so returned references stay valid for the cache's lifetime.
#pragma once

#include <algorithm>
#include <cstdint>
#include <map>
#include <mutex>
#include <span>
#include <vector>

#include "dag/graph_algo.hpp"
#include "dag/workflow.hpp"

namespace cloudwf::dag {

class StructureCache {
 public:
  /// Builds every eager table in one pass. Throws (like topological_order)
  /// if the graph has a cycle.
  explicit StructureCache(const Workflow& wf);

  [[nodiscard]] std::size_t task_count() const noexcept { return n_; }
  [[nodiscard]] std::size_t edge_count() const noexcept {
    return pred_flat_.size();
  }

  /// Predecessors / successors of `t` in insertion order (identical to
  /// Workflow::predecessors / successors).
  [[nodiscard]] std::span<const TaskId> preds(TaskId t) const noexcept {
    return {pred_flat_.data() + pred_off_[t], pred_off_[t + 1] - pred_off_[t]};
  }
  [[nodiscard]] std::span<const TaskId> succs(TaskId t) const noexcept {
    return {succ_flat_.data() + succ_off_[t], succ_off_[t + 1] - succ_off_[t]};
  }

  /// Resolved data (GB) carried by the i-th incoming / outgoing edge of `t`,
  /// aligned with preds(t) / succs(t): the per-edge override when set,
  /// otherwise the producer's output_data (== Workflow::edge_data).
  [[nodiscard]] std::span<const util::Gigabytes> pred_data(TaskId t) const noexcept {
    return {pred_data_.data() + pred_off_[t], pred_off_[t + 1] - pred_off_[t]};
  }
  [[nodiscard]] std::span<const util::Gigabytes> succ_data(TaskId t) const noexcept {
    return {succ_data_.data() + succ_off_[t], succ_off_[t + 1] - succ_off_[t]};
  }

  /// Dense id of `t`'s i-th incoming edge in [0, edge_count()) — the slot
  /// base callers use to index flat per-edge memo tables.
  [[nodiscard]] std::size_t pred_edge_slot(TaskId t) const noexcept {
    return pred_off_[t];
  }

  /// The dense incoming-edge slot of each outgoing edge of `t`, aligned with
  /// succs(t): for s = succs(t)[i], preds(s)[succ_edge_slots(t)[i] -
  /// pred_edge_slot(s)] == t. A walk along successors can index per-edge
  /// tables with it instead of searching the consumer's predecessor list.
  [[nodiscard]] std::span<const std::size_t> succ_edge_slots(TaskId t) const noexcept {
    return {succ_slot_.data() + succ_off_[t], succ_off_[t + 1] - succ_off_[t]};
  }

  /// Upward ranks — the implementation behind dag::upward_rank and
  /// upward_rank_memo: rank(t) = exec(t) + the max over succs(t) of
  /// comm(t, s, slot) + rank(s), where `exec(t)` is a task's execution time
  /// and `comm(from, to, slot)` an edge's transfer time, `slot` being the
  /// edge's dense incoming-edge slot (succ_edge_slots).
  template <class Exec, class Comm>
  [[nodiscard]] std::vector<double> upward_rank(const Exec& exec, const Comm& comm) const;

  /// One critical path from an entry to an exit — the implementation behind
  /// dag::critical_path, with `exec` and `comm` as in upward_rank. The path
  /// starts at the entry with the largest upward rank (lowest id on ties)
  /// and follows, at each step, the first successor in succs() order whose
  /// comm + rank beats the best so far by more than kTimeEpsilon.
  template <class Exec, class Comm>
  [[nodiscard]] std::vector<TaskId> critical_path(const Exec& exec, const Comm& comm) const;

  /// Deterministic Kahn order (min-id tie-break), == dag::topological_order.
  [[nodiscard]] const std::vector<TaskId>& topo_order() const noexcept {
    return topo_;
  }

  /// Level of each task (longest-hop distance from an entry), == task_levels.
  [[nodiscard]] const std::vector<int>& levels() const noexcept { return levels_; }

  /// Number of tasks per level.
  [[nodiscard]] const std::vector<std::size_t>& level_sizes() const noexcept {
    return level_sizes_;
  }

  /// Tasks grouped by level, ids ascending inside a level, == level_groups.
  [[nodiscard]] const std::vector<std::vector<TaskId>>& level_groups() const noexcept {
    return groups_;
  }

  [[nodiscard]] std::size_t max_width() const noexcept { return max_width_; }

  /// True iff `t` shares its level with at least one other task.
  [[nodiscard]] bool is_parallel(TaskId t) const noexcept {
    return level_sizes_[static_cast<std::size_t>(levels_[t])] > 1;
  }

  /// Predecessor of `t` with the largest work — lowest id on work ties —
  /// or kInvalidTask for entry tasks (PlacementContext::largest_predecessor).
  [[nodiscard]] TaskId largest_pred(TaskId t) const noexcept {
    return largest_pred_[t];
  }

  /// Task work snapshot taken at build time (invalidation on Workflow
  /// mutation guarantees it is current).
  [[nodiscard]] const std::vector<util::Seconds>& works() const noexcept {
    return works_;
  }

  /// Each level's tasks ordered by work descending, id ascending on ties —
  /// the order LevelScheduler and the AllPar1LnS packers place in. Built
  /// lazily, once.
  [[nodiscard]] const std::vector<std::vector<TaskId>>& levels_by_work_desc() const;

  /// Memoized HEFT upward rank / order for one cost model. `key` must
  /// uniquely identify the (exec, comm) model — callers hash the instance
  /// size and transfer parameters — and exec/comm are only invoked on a
  /// miss. Bit-identical to dag::upward_rank / dag::heft_order.
  [[nodiscard]] const std::vector<double>& upward_rank_memo(
      std::uint64_t key, const ExecTimeFn& exec, const CommTimeFn& comm) const;
  [[nodiscard]] const std::vector<TaskId>& heft_order_memo(
      std::uint64_t key, const ExecTimeFn& exec, const CommTimeFn& comm) const;

 private:
  std::size_t n_ = 0;
  std::vector<std::size_t> pred_off_, succ_off_;  // CSR offsets, size n_+1
  std::vector<TaskId> pred_flat_, succ_flat_;
  std::vector<util::Gigabytes> pred_data_, succ_data_;
  std::vector<std::size_t> succ_slot_;  // aligned with succ_flat_
  std::vector<TaskId> topo_;
  std::vector<int> levels_;
  std::vector<std::size_t> level_sizes_;
  std::vector<std::vector<TaskId>> groups_;
  std::vector<TaskId> largest_pred_;
  std::vector<util::Seconds> works_;
  std::size_t max_width_ = 0;

  mutable std::mutex memo_mu_;
  mutable std::vector<std::vector<TaskId>> work_desc_;  // empty until built
  mutable std::map<std::uint64_t, std::vector<double>> rank_memo_;
  mutable std::map<std::uint64_t, std::vector<TaskId>> order_memo_;
};

template <class Exec, class Comm>
std::vector<double> StructureCache::upward_rank(const Exec& exec, const Comm& comm) const {
  std::vector<double> rank(n_, 0.0);
  for (auto it = topo_.rbegin(); it != topo_.rend(); ++it) {
    const TaskId t = *it;
    const std::span<const TaskId> ss = succs(t);
    const std::span<const std::size_t> slots = succ_edge_slots(t);
    double best = 0.0;
    for (std::size_t i = 0; i < ss.size(); ++i)
      best = std::max(best, comm(t, ss[i], slots[i]) + rank[ss[i]]);
    rank[t] = exec(t) + best;
  }
  return rank;
}

template <class Exec, class Comm>
std::vector<TaskId> StructureCache::critical_path(const Exec& exec, const Comm& comm) const {
  const std::vector<double> rank = upward_rank(exec, comm);
  TaskId cur = kInvalidTask;
  for (std::size_t i = 0; i < n_; ++i) {
    const auto e = static_cast<TaskId>(i);
    if (pred_off_[i + 1] == pred_off_[i] && (cur == kInvalidTask || rank[e] > rank[cur]))
      cur = e;
  }
  if (cur == kInvalidTask) return {};

  std::vector<TaskId> path{cur};
  while (succ_off_[cur + 1] != succ_off_[cur]) {
    // Follow the successor realizing rank(t) = exec(t) + max(comm + rank(s));
    // the first one in succs() order wins floating-point ties.
    const std::span<const TaskId> ss = succs(cur);
    const std::span<const std::size_t> slots = succ_edge_slots(cur);
    TaskId next = kInvalidTask;
    double best = -1.0;
    for (std::size_t i = 0; i < ss.size(); ++i) {
      const double via = comm(cur, ss[i], slots[i]) + rank[ss[i]];
      if (via > best + util::kTimeEpsilon) {
        best = via;
        next = ss[i];
      }
    }
    path.push_back(next);
    cur = next;
  }
  return path;
}

}  // namespace cloudwf::dag
