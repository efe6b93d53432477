// Property tests for dag::StructureCache: every cached table must be
// bit-identical to a fresh, independent recompute. The references here are
// deliberately naive re-implementations (not calls into dag/graph_algo.hpp,
// which itself reads the cache) so a cache bug cannot certify itself.
#include "dag/structure_cache.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <queue>
#include <string>
#include <vector>

#include "dag/builders.hpp"
#include "dag/generators.hpp"
#include "dag/graph_algo.hpp"
#include "dag/science.hpp"
#include "dag/workflow.hpp"
#include "util/rng.hpp"

namespace cloudwf::dag {
namespace {

// -- Naive references ------------------------------------------------------

std::vector<TaskId> naive_topo(const Workflow& wf) {
  std::vector<std::size_t> indegree(wf.task_count(), 0);
  for (const Task& t : wf.tasks())
    indegree[t.id] = wf.predecessors(t.id).size();
  std::priority_queue<TaskId, std::vector<TaskId>, std::greater<>> ready;
  for (const Task& t : wf.tasks())
    if (indegree[t.id] == 0) ready.push(t.id);
  std::vector<TaskId> order;
  while (!ready.empty()) {
    const TaskId t = ready.top();
    ready.pop();
    order.push_back(t);
    for (TaskId s : wf.successors(t))
      if (--indegree[s] == 0) ready.push(s);
  }
  return order;
}

std::vector<int> naive_levels(const Workflow& wf) {
  std::vector<int> level(wf.task_count(), 0);
  for (TaskId t : naive_topo(wf))
    for (TaskId p : wf.predecessors(t))
      level[t] = std::max(level[t], level[p] + 1);
  return level;
}

std::vector<std::vector<TaskId>> naive_groups(const Workflow& wf) {
  const std::vector<int> levels = naive_levels(wf);
  const int depth =
      levels.empty() ? 0 : *std::max_element(levels.begin(), levels.end()) + 1;
  std::vector<std::vector<TaskId>> groups(static_cast<std::size_t>(depth));
  for (const Task& t : wf.tasks())
    groups[static_cast<std::size_t>(levels[t.id])].push_back(t.id);
  for (auto& g : groups) std::sort(g.begin(), g.end());
  return groups;
}

std::vector<double> naive_upward_rank(const Workflow& wf, const ExecTimeFn& exec,
                                      const CommTimeFn& comm) {
  const std::vector<TaskId> topo = naive_topo(wf);
  std::vector<double> rank(wf.task_count(), 0.0);
  for (auto it = topo.rbegin(); it != topo.rend(); ++it) {
    const TaskId t = *it;
    double best = 0.0;
    for (TaskId s : wf.successors(t))
      best = std::max(best, comm(t, s) + rank[s]);
    rank[t] = exec(t) + best;
  }
  return rank;
}

std::vector<TaskId> naive_critical_path(const Workflow& wf, const ExecTimeFn& exec,
                                        const CommTimeFn& comm) {
  const std::vector<double> up = naive_upward_rank(wf, exec, comm);
  std::vector<TaskId> entries;
  for (const Task& t : wf.tasks())
    if (wf.predecessors(t.id).empty()) entries.push_back(t.id);
  if (entries.empty()) return {};
  TaskId cur = entries.front();
  for (TaskId e : entries)
    if (up[e] > up[cur]) cur = e;
  std::vector<TaskId> path{cur};
  while (!wf.successors(cur).empty()) {
    TaskId next = kInvalidTask;
    double best = -1.0;
    for (TaskId s : wf.successors(cur)) {
      const double via = comm(cur, s) + up[s];
      if (via > best + util::kTimeEpsilon) {
        best = via;
        next = s;
      }
    }
    path.push_back(next);
    cur = next;
  }
  return path;
}

TaskId naive_largest_pred(const Workflow& wf, TaskId t) {
  const std::vector<TaskId>& preds = wf.predecessors(t);
  if (preds.empty()) return kInvalidTask;
  TaskId best = preds.front();
  for (TaskId p : preds) {
    if (wf.task(p).work > wf.task(best).work ||
        (wf.task(p).work == wf.task(best).work && p < best))
      best = p;
  }
  return best;
}

void expect_cache_matches(const Workflow& wf) {
  const StructureCache cache(wf);

  ASSERT_EQ(cache.task_count(), wf.task_count());
  EXPECT_EQ(cache.topo_order(), naive_topo(wf)) << wf.name();
  EXPECT_EQ(cache.levels(), naive_levels(wf)) << wf.name();

  const auto groups = naive_groups(wf);
  EXPECT_EQ(cache.level_groups(), groups) << wf.name();
  std::size_t width = 0;
  for (std::size_t lvl = 0; lvl < groups.size(); ++lvl) {
    EXPECT_EQ(cache.level_sizes()[lvl], groups[lvl].size()) << wf.name();
    width = std::max(width, groups[lvl].size());
  }
  EXPECT_EQ(cache.max_width(), width) << wf.name();

  std::size_t edges = 0;
  for (const Task& t : wf.tasks()) {
    const std::vector<TaskId>& preds = wf.predecessors(t.id);
    const std::vector<TaskId>& succs = wf.successors(t.id);
    ASSERT_EQ(cache.preds(t.id).size(), preds.size());
    ASSERT_EQ(cache.succs(t.id).size(), succs.size());
    for (std::size_t i = 0; i < preds.size(); ++i) {
      EXPECT_EQ(cache.preds(t.id)[i], preds[i]);
      EXPECT_EQ(cache.pred_data(t.id)[i], wf.edge_data(preds[i], t.id));
    }
    ASSERT_EQ(cache.succ_edge_slots(t.id).size(), succs.size());
    for (std::size_t i = 0; i < succs.size(); ++i) {
      EXPECT_EQ(cache.succs(t.id)[i], succs[i]);
      EXPECT_EQ(cache.succ_data(t.id)[i], wf.edge_data(t.id, succs[i]));
      // The outgoing edge's slot names this task in the consumer's preds.
      const std::size_t slot = cache.succ_edge_slots(t.id)[i];
      const std::size_t base = cache.pred_edge_slot(succs[i]);
      ASSERT_GE(slot, base);
      ASSERT_LT(slot - base, cache.preds(succs[i]).size());
      EXPECT_EQ(cache.preds(succs[i])[slot - base], t.id) << wf.name();
    }
    EXPECT_EQ(cache.pred_edge_slot(t.id) + preds.size(),
              t.id + 1 < wf.task_count()
                  ? cache.pred_edge_slot(static_cast<TaskId>(t.id + 1))
                  : cache.edge_count());
    EXPECT_EQ(cache.largest_pred(t.id), naive_largest_pred(wf, t.id)) << t.id;
    EXPECT_EQ(cache.works()[t.id], t.work);
    edges += preds.size();
  }
  EXPECT_EQ(cache.edge_count(), edges);

  // levels_by_work_desc: per level, work descending, id ascending on ties.
  const auto& by_work = cache.levels_by_work_desc();
  ASSERT_EQ(by_work.size(), groups.size());
  for (std::size_t lvl = 0; lvl < groups.size(); ++lvl) {
    std::vector<TaskId> expected = groups[lvl];
    std::stable_sort(expected.begin(), expected.end(), [&](TaskId a, TaskId b) {
      if (wf.task(a).work != wf.task(b).work)
        return wf.task(a).work > wf.task(b).work;
      return a < b;
    });
    EXPECT_EQ(by_work[lvl], expected) << "level " << lvl;
  }

  // HEFT memo: identical to the naive rank under an arbitrary cost model,
  // and the same key returns the same node (no recompute, stable address).
  const ExecTimeFn exec = [&](TaskId t) { return wf.task(t).work / 3.0; };
  const CommTimeFn comm = [&](TaskId p, TaskId t) {
    return wf.edge_data(p, t) * 0.125;
  };
  const std::vector<double>& rank = cache.upward_rank_memo(7, exec, comm);
  EXPECT_EQ(rank, naive_upward_rank(wf, exec, comm)) << wf.name();
  EXPECT_EQ(&cache.upward_rank_memo(7, exec, comm), &rank);

  std::vector<TaskId> expected_order(wf.task_count());
  for (std::size_t i = 0; i < expected_order.size(); ++i)
    expected_order[i] = static_cast<TaskId>(i);
  std::stable_sort(expected_order.begin(), expected_order.end(),
                   [&](TaskId a, TaskId b) {
                     if (rank[a] != rank[b]) return rank[a] > rank[b];
                     return a < b;
                   });
  EXPECT_EQ(cache.heft_order_memo(7, exec, comm), expected_order) << wf.name();

  // The slot-aware rank and critical-path walk: the same ranks and path as
  // the naive walk, and every slot handed to comm is the edge's own.
  const auto slot_comm = [&](TaskId p, TaskId t, std::size_t slot) {
    EXPECT_EQ(cache.preds(t)[slot - cache.pred_edge_slot(t)], p);
    return comm(p, t);
  };
  EXPECT_EQ(cache.upward_rank(exec, slot_comm), naive_upward_rank(wf, exec, comm))
      << wf.name();
  EXPECT_EQ(cache.critical_path(exec, slot_comm), naive_critical_path(wf, exec, comm))
      << wf.name();
}

// -- Tests -----------------------------------------------------------------

TEST(StructureCache, MatchesFreshRecomputeOnPaperWorkflows) {
  expect_cache_matches(builders::montage24());
  expect_cache_matches(builders::cstem());
  expect_cache_matches(builders::map_reduce());
  expect_cache_matches(builders::sequential_chain());
}

TEST(StructureCache, MatchesFreshRecomputeOnRandomizedDags) {
  util::Rng rng(20260807);
  for (int round = 0; round < 20; ++round) {
    generators::LayeredConfig cfg;
    cfg.levels = 2 + static_cast<std::size_t>(round % 6);
    cfg.max_width = 1 + static_cast<std::size_t>(round % 8);
    cfg.edge_density = 0.2 + 0.1 * static_cast<double>(round % 7);
    expect_cache_matches(generators::random_layered(cfg, rng));
  }
  expect_cache_matches(generators::fork_join(3, 5));
  expect_cache_matches(generators::out_tree(3, 3));
  expect_cache_matches(generators::in_tree(3, 3));
}

TEST(StructureCache, MatchesFreshRecomputeOnPegasusFamilies) {
  // Wide fan-ins and fan-outs (sipht's PatserConcat, cybershake's
  // ZipSeis/ZipPSA) at a few hundred tasks.
  for (const science::Family family : science::kAllFamilies)
    expect_cache_matches(science::scaled(family, 300));
}

TEST(StructureCache, EdgeSlotsFollowInsertionOrderNotIdOrder) {
  // Edges added out of id order: a consumer's preds, a producer's succs and
  // the slots between them must follow insertion order.
  Workflow wf("shuffled");
  for (int i = 0; i < 6; ++i) (void)wf.add_task("t" + std::to_string(i), 1.0 + i);
  wf.add_edge(2, 5, 3.0);
  wf.add_edge(0, 5);
  wf.add_edge(1, 3);
  wf.add_edge(0, 3, 1.5);
  wf.add_edge(1, 5);
  wf.add_edge(3, 4);
  wf.add_edge(3, 5);
  expect_cache_matches(wf);
}

TEST(StructureCache, WorkflowSharesOneInstanceUntilMutation) {
  Workflow wf = builders::montage24();
  const auto first = wf.structure();
  EXPECT_EQ(wf.structure(), first) << "repeat queries must share the cache";

  // Mutating task data (works feed the cached tables) drops the cache.
  wf.task(0).work *= 2.0;
  const auto second = wf.structure();
  EXPECT_NE(second, first);
  EXPECT_EQ(second->works()[0], wf.task(0).work);

  // Structural mutations drop it too.
  const TaskId extra = wf.add_task("extra", 1.0);
  const auto third = wf.structure();
  EXPECT_NE(third, second);
  EXPECT_EQ(third->task_count(), wf.task_count());

  wf.add_edge(0, extra);
  const auto fourth = wf.structure();
  EXPECT_NE(fourth, third);
  EXPECT_EQ(fourth->preds(extra).size(), 1u);
}

TEST(StructureCache, CopiedWorkflowSharesTheCache) {
  Workflow wf = builders::cstem();
  const auto cache = wf.structure();
  const Workflow copy = wf;
  EXPECT_EQ(copy.structure(), cache)
      << "copies have equal structure and may share the cache";
}

TEST(StructureCache, DistinctModelKeysGetDistinctMemos) {
  const Workflow wf = builders::map_reduce();
  const StructureCache cache(wf);
  const ExecTimeFn exec_a = [&](TaskId t) { return wf.task(t).work; };
  const ExecTimeFn exec_b = [&](TaskId t) { return wf.task(t).work / 2.0; };
  const CommTimeFn no_comm = [](TaskId, TaskId) { return 0.0; };

  const auto& rank_a = cache.upward_rank_memo(1, exec_a, no_comm);
  const auto& rank_b = cache.upward_rank_memo(2, exec_b, no_comm);
  EXPECT_EQ(rank_a, naive_upward_rank(wf, exec_a, no_comm));
  EXPECT_EQ(rank_b, naive_upward_rank(wf, exec_b, no_comm));
  EXPECT_NE(rank_a, rank_b) << "halving exec must change some rank";
}

}  // namespace
}  // namespace cloudwf::dag
