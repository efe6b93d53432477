#include "dag/graph_algo.hpp"

#include <algorithm>
#include <stdexcept>

#include "dag/structure_cache.hpp"

namespace cloudwf::dag {

// The structural queries delegate to the workflow's lazily built
// StructureCache (one Kahn pass per workflow instance, shared by every
// strategy and seed). The cache builders replicate the historical loops
// exactly, so results are bit-identical to the pre-cache implementations.

std::vector<TaskId> topological_order(const Workflow& wf) {
  return wf.structure()->topo_order();
}

std::vector<int> task_levels(const Workflow& wf) {
  return wf.structure()->levels();
}

std::vector<std::vector<TaskId>> level_groups(const Workflow& wf) {
  return wf.structure()->level_groups();
}

std::size_t max_width(const Workflow& wf) { return wf.structure()->max_width(); }

std::vector<double> upward_rank(const Workflow& wf, const ExecTimeFn& exec,
                                const CommTimeFn& comm) {
  return wf.structure()->upward_rank(
      exec, [&comm](TaskId from, TaskId to, std::size_t) { return comm(from, to); });
}

std::vector<double> downward_rank(const Workflow& wf, const ExecTimeFn& exec,
                                  const CommTimeFn& comm) {
  const auto sc = wf.structure();
  std::vector<double> rank(wf.task_count(), 0.0);
  for (TaskId t : sc->topo_order()) {
    double best = 0.0;
    for (TaskId p : sc->preds(t))
      best = std::max(best, rank[p] + exec(p) + comm(p, t));
    rank[t] = best;
  }
  return rank;
}

std::vector<TaskId> heft_order(const Workflow& wf, const ExecTimeFn& exec,
                               const CommTimeFn& comm) {
  const std::vector<double> rank = upward_rank(wf, exec, comm);
  std::vector<TaskId> order(wf.task_count());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = static_cast<TaskId>(i);
  std::stable_sort(order.begin(), order.end(), [&](TaskId a, TaskId b) {
    if (rank[a] != rank[b]) return rank[a] > rank[b];
    return a < b;
  });
  return order;
}

std::vector<TaskId> critical_path(const Workflow& wf, const ExecTimeFn& exec,
                                  const CommTimeFn& comm) {
  return wf.structure()->critical_path(
      exec, [&comm](TaskId from, TaskId to, std::size_t) { return comm(from, to); });
}

util::Seconds critical_path_length(const Workflow& wf, const ExecTimeFn& exec,
                                   const CommTimeFn& comm) {
  const std::vector<double> up = upward_rank(wf, exec, comm);
  double best = 0.0;
  for (TaskId e : wf.entry_tasks()) best = std::max(best, up[e]);
  return best;
}

bool reachable(const Workflow& wf, TaskId from, TaskId to) {
  std::vector<TaskId> stack{from};
  std::vector<bool> seen(wf.task_count(), false);
  while (!stack.empty()) {
    const TaskId cur = stack.back();
    stack.pop_back();
    if (cur == to) return true;
    if (seen[cur]) continue;
    seen[cur] = true;
    for (TaskId s : wf.successors(cur)) stack.push_back(s);
  }
  return false;
}

std::vector<Edge> transitively_redundant_edges(const Workflow& wf) {
  std::vector<Edge> redundant;
  for (const Edge& e : wf.edges()) {
    // e is redundant iff `to` is reachable from `from` via some other path:
    // check reachability from every other successor of `from`.
    for (TaskId s : wf.successors(e.from)) {
      if (s == e.to) continue;
      if (reachable(wf, s, e.to)) {
        redundant.push_back(e);
        break;
      }
    }
  }
  return redundant;
}

}  // namespace cloudwf::dag
