#include "scheduling/baselines.hpp"

#include <algorithm>
#include <stdexcept>

#include "dag/graph_algo.hpp"
#include "scheduling/bicpa.hpp"
#include "scheduling/elastic_strategy.hpp"
#include "scheduling/het_heft.hpp"
#include "scheduling/heuristics.hpp"
#include "scheduling/scs.hpp"
#include "scheduling/upgrade.hpp"

namespace cloudwf::scheduling {

namespace {
std::string sized_name(const char* base, cloud::InstanceSize size) {
  return std::string(base) + "-" + std::string(cloud::suffix_of(size));
}

/// Rents a fixed pool and returns the ids.
std::vector<cloud::VmId> rent_pool(sim::Schedule& schedule, std::size_t pool_size,
                                   cloud::InstanceSize size,
                                   const cloud::Platform& platform) {
  std::vector<cloud::VmId> ids;
  ids.reserve(pool_size);
  for (std::size_t i = 0; i < pool_size; ++i)
    ids.push_back(schedule.rent(size, platform.default_region_id()));
  return ids;
}
}  // namespace

RoundRobinScheduler::RoundRobinScheduler(std::size_t pool_size,
                                         cloud::InstanceSize size)
    : pool_size_(pool_size), size_(size) {
  if (pool_size_ == 0)
    throw std::invalid_argument("RoundRobinScheduler: empty pool");
}

std::string RoundRobinScheduler::name() const {
  return sized_name("RoundRobin", size_);
}

sim::Schedule RoundRobinScheduler::run(const dag::Workflow& wf,
                                       const cloud::Platform& platform) const {
  wf.validate();
  sim::Schedule schedule(wf);
  provisioning::PlacementContext ctx(wf, schedule, platform, size_);
  const std::vector<cloud::VmId> pool =
      rent_pool(schedule, pool_size_, size_, platform);

  std::size_t next = 0;
  for (dag::TaskId t : dag::topological_order(wf)) {
    place_at_earliest(ctx, t, pool[next]);
    next = (next + 1) % pool.size();
  }
  return schedule;
}

LeastLoadScheduler::LeastLoadScheduler(std::size_t pool_size,
                                       cloud::InstanceSize size)
    : pool_size_(pool_size), size_(size) {
  if (pool_size_ == 0)
    throw std::invalid_argument("LeastLoadScheduler: empty pool");
}

std::string LeastLoadScheduler::name() const {
  return sized_name("LeastLoad", size_);
}

sim::Schedule LeastLoadScheduler::run(const dag::Workflow& wf,
                                      const cloud::Platform& platform) const {
  wf.validate();
  sim::Schedule schedule(wf);
  provisioning::PlacementContext ctx(wf, schedule, platform, size_);
  const std::vector<cloud::VmId> pool =
      rent_pool(schedule, pool_size_, size_, platform);

  for (dag::TaskId t : dag::topological_order(wf)) {
    cloud::VmId least = pool.front();
    for (cloud::VmId id : pool) {
      if (schedule.pool().vm(id).busy_time() <
          schedule.pool().vm(least).busy_time())
        least = id;
    }
    place_at_earliest(ctx, t, least);
  }
  return schedule;
}

PchScheduler::PchScheduler(cloud::InstanceSize size) : size_(size) {}

std::string PchScheduler::name() const { return sized_name("PCH", size_); }

std::vector<std::vector<dag::TaskId>> PchScheduler::cluster_paths(
    const dag::Workflow& wf, const cloud::Platform& platform,
    cloud::InstanceSize size) {
  // Priority = HEFT upward rank with the comm estimate between two distinct
  // VMs of this size (PCH's P_i uses exec + comm + successor priority).
  const cloud::Vm a(0, size, platform.default_region_id());
  const cloud::Vm b(1, size, platform.default_region_id());
  const std::vector<double> rank = dag::upward_rank(
      wf, [&](dag::TaskId t) { return cloud::exec_time(wf.task(t).work, size); },
      [&](dag::TaskId p, dag::TaskId t) {
        return platform.transfer_time(wf.edge_data(p, t), a, b);
      });

  std::vector<bool> clustered(wf.task_count(), false);
  std::vector<std::vector<dag::TaskId>> clusters;
  for (;;) {
    // Highest-priority unclustered task seeds the next cluster.
    dag::TaskId seed = dag::kInvalidTask;
    for (const dag::Task& t : wf.tasks()) {
      if (clustered[t.id]) continue;
      if (seed == dag::kInvalidTask || rank[t.id] > rank[seed]) seed = t.id;
    }
    if (seed == dag::kInvalidTask) break;

    std::vector<dag::TaskId> cluster;
    dag::TaskId cur = seed;
    while (cur != dag::kInvalidTask) {
      clustered[cur] = true;
      cluster.push_back(cur);
      // Follow the highest-priority unclustered successor down the path.
      dag::TaskId next = dag::kInvalidTask;
      for (dag::TaskId s : wf.successors(cur)) {
        if (clustered[s]) continue;
        if (next == dag::kInvalidTask || rank[s] > rank[next]) next = s;
      }
      cur = next;
    }
    clusters.push_back(std::move(cluster));
  }
  return clusters;
}

sim::Schedule PchScheduler::run(const dag::Workflow& wf,
                                const cloud::Platform& platform) const {
  wf.validate();
  sim::Schedule schedule(wf);
  provisioning::PlacementContext ctx(wf, schedule, platform, size_);

  const auto clusters = cluster_paths(wf, platform, size_);
  std::vector<cloud::VmId> cluster_vm(wf.task_count(), cloud::kInvalidVm);
  for (const auto& cluster : clusters) {
    const cloud::VmId vm = schedule.rent(size_, platform.default_region_id());
    for (dag::TaskId t : cluster) cluster_vm[t] = vm;
  }

  // Place in topological order; same-cluster tasks land on the same VM, so
  // intra-path communication vanishes.
  for (dag::TaskId t : dag::topological_order(wf))
    place_at_earliest(ctx, t, cluster_vm[t]);
  return schedule;
}

SheftScheduler::SheftScheduler(double deadline_fraction)
    : deadline_fraction_(deadline_fraction) {
  if (!(deadline_fraction > 0) || deadline_fraction > 1)
    throw std::invalid_argument("SheftScheduler: deadline fraction in (0,1]");
}

sim::Schedule SheftScheduler::run(const dag::Workflow& wf,
                                  const cloud::Platform& platform) const {
  wf.validate();
  std::vector<cloud::InstanceSize> sizes(wf.task_count(), cloud::InstanceSize::small);

  const util::Seconds deadline =
      retime_one_vm_per_task(wf, platform, sizes).makespan() * deadline_fraction_;

  const auto comm = [&](dag::TaskId p, dag::TaskId t) {
    const cloud::Vm from(0, sizes[p], platform.default_region_id());
    const cloud::Vm to(1, sizes[t], platform.default_region_id());
    return platform.transfer_time(wf.edge_data(p, t), from, to);
  };
  const auto exec = [&](dag::TaskId t) {
    return cloud::exec_time(wf.task(t).work, sizes[t]);
  };

  // Scale out along the critical path until the deadline holds or every
  // critical task is already on the fastest type.
  for (;;) {
    if (retime_one_vm_per_task(wf, platform, sizes).makespan() <=
        deadline + util::kTimeEpsilon)
      break;
    const std::vector<dag::TaskId> cp = dag::critical_path(wf, exec, comm);
    dag::TaskId candidate = dag::kInvalidTask;
    for (dag::TaskId t : cp) {
      if (!cloud::next_faster(sizes[t])) continue;
      if (candidate == dag::kInvalidTask || exec(t) > exec(candidate))
        candidate = t;
    }
    if (candidate == dag::kInvalidTask) break;  // deadline unreachable
    sizes[candidate] = *cloud::next_faster(sizes[candidate]);
  }
  return retime_one_vm_per_task(wf, platform, sizes);
}

std::vector<Strategy> baseline_strategies(std::size_t pool_size) {
  std::vector<Strategy> out;
  for (cloud::InstanceSize size :
       {cloud::InstanceSize::small, cloud::InstanceSize::medium,
        cloud::InstanceSize::large}) {
    out.push_back({sized_name("RoundRobin", size),
                   std::make_shared<RoundRobinScheduler>(pool_size, size)});
    out.push_back({sized_name("LeastLoad", size),
                   std::make_shared<LeastLoadScheduler>(pool_size, size)});
    out.push_back({sized_name("PCH", size), std::make_shared<PchScheduler>(size)});
  }
  out.push_back({"SHEFT", std::make_shared<SheftScheduler>()});
  out.push_back({"biCPA-budget-s",
                 std::make_shared<BiCpaScheduler>(
                     BiCpaScheduler::Objective::budget, 2.0)});
  out.push_back({"biCPA-deadline-s",
                 std::make_shared<BiCpaScheduler>(
                     BiCpaScheduler::Objective::deadline, 1.5)});
  out.push_back({"SCS", std::make_shared<ScsScheduler>()});
  out.push_back(elastic_strategy(cloud::InstanceSize::small));
  for (Strategy& s : heuristic_strategies(pool_size))
    out.push_back(std::move(s));
  out.push_back({"HetHEFT[ssml]",
                 std::make_shared<HeterogeneousHeftScheduler>(
                     std::vector<cloud::InstanceSize>{
                         cloud::InstanceSize::small, cloud::InstanceSize::small,
                         cloud::InstanceSize::medium,
                         cloud::InstanceSize::large})});
  return out;
}

}  // namespace cloudwf::scheduling
