// Microbenchmarks for the flat-core hot paths introduced by the structure
// cache / indexed VM pool / memoized cost tables: each fixture isolates one
// layer so a regression pinpoints itself. The end-to-end number CI gates on
// lives in bench_parallel_sweep (--json) + tools/check_bench_regression.py.
#include <benchmark/benchmark.h>

#include <vector>

#include "cloud/vm.hpp"
#include "dag/builders.hpp"
#include "dag/structure_cache.hpp"
#include "exp/experiment.hpp"
#include "scheduling/upgrade.hpp"

namespace {

using namespace cloudwf;

dag::Workflow montage_pareto() {
  const exp::ExperimentRunner runner;
  return runner.materialize(exp::paper_workflows().front(),
                            workload::ScenarioKind::pareto);
}

// Cost of building every eager table once (what one workflow instance pays).
void BM_StructureCacheBuild(benchmark::State& state) {
  const dag::Workflow wf = montage_pareto();
  for (auto _ : state) {
    const dag::StructureCache cache(wf);
    benchmark::DoNotOptimize(cache.topo_order().data());
  }
}
BENCHMARK(BM_StructureCacheBuild);

// Steady-state shared access: every scheduler run starts here.
void BM_StructureCacheSharedLookup(benchmark::State& state) {
  const dag::Workflow wf = montage_pareto();
  (void)wf.structure();
  for (auto _ : state) {
    const auto cache = wf.structure();
    benchmark::DoNotOptimize(cache.get());
  }
}
BENCHMARK(BM_StructureCacheSharedLookup);

// HEFT rank memo hit: the per-run cost after the first strategy of a family
// ranked the DAG.
void BM_HeftRankMemoHit(benchmark::State& state) {
  const dag::Workflow wf = montage_pareto();
  const dag::StructureCache cache(wf);
  const dag::ExecTimeFn exec = [&](dag::TaskId t) { return wf.task(t).work; };
  const dag::CommTimeFn comm = [&](dag::TaskId p, dag::TaskId t) {
    return wf.edge_data(p, t);
  };
  (void)cache.heft_order_memo(1, exec, comm);
  for (auto _ : state) {
    const auto& order = cache.heft_order_memo(1, exec, comm);
    benchmark::DoNotOptimize(order.data());
  }
}
BENCHMARK(BM_HeftRankMemoHit);

// Incremental reuse index: append placements and query the order every
// step, the StartPar/AllPar choose_vm access pattern.
void BM_VmPoolPlaceAndReuseOrder(benchmark::State& state) {
  for (auto _ : state) {
    cloud::VmPool pool;
    for (int i = 0; i < 16; ++i)
      (void)pool.rent(cloud::InstanceSize::small, 0);
    std::vector<util::Seconds> next_free(16, 0.0);
    for (dag::TaskId task = 0; task < 256; ++task) {
      const auto id = static_cast<cloud::VmId>(task % 16);
      const util::Seconds end =
          next_free[id] + 1.0 + static_cast<double>(task % 7);
      pool.place(id, task, next_free[id], end);
      next_free[id] = end;
      benchmark::DoNotOptimize(pool.reuse_order().front());
    }
  }
}
BENCHMARK(BM_VmPoolPlaceAndReuseOrder);

// One upgrade-loop candidate evaluation (retime + budget cost) on the
// reusable scratch — CPA-Eager/GAIN's inner loop.
void BM_RetimerCandidateCost(benchmark::State& state) {
  const dag::Workflow wf = montage_pareto();
  const exp::ExperimentRunner runner;
  scheduling::OneVmPerTaskRetimer retimer(wf, runner.platform());
  std::vector<cloud::InstanceSize> sizes(wf.task_count(),
                                         cloud::InstanceSize::small);
  std::size_t flip = 0;
  for (auto _ : state) {
    sizes[flip] = sizes[flip] == cloud::InstanceSize::small
                      ? cloud::InstanceSize::large
                      : cloud::InstanceSize::small;
    flip = (flip + 1) % sizes.size();
    benchmark::DoNotOptimize(retimer.cost(sizes));
  }
}
BENCHMARK(BM_RetimerCandidateCost);

// The headline unit: one full 19-strategy sweep cell (Montage, Pareto).
void BM_RunAllSweepCell(benchmark::State& state) {
  const exp::ExperimentRunner runner;
  const dag::Workflow montage = exp::paper_workflows().front();
  for (auto _ : state) {
    const auto results =
        runner.run_all(montage, workload::ScenarioKind::pareto);
    benchmark::DoNotOptimize(results.data());
  }
}
BENCHMARK(BM_RunAllSweepCell);

}  // namespace
