// Baseline and related-work schedulers surveyed in the paper's Sect. II,
// implemented as comparators beyond the 19 evaluated series:
//
//  - RoundRobinScheduler: the commercial-cloud load balancing baseline
//    ("Most of the commercial clouds use simple allocation methods such as
//    Round Robin (Amazon EC2)") over a fixed VM pool;
//  - LeastLoadScheduler: the Least-Load baseline [Gu et al.], fixed pool,
//    next task to the VM with the least accumulated work;
//  - PchScheduler: the Path Clustering Heuristic [Bittencourt & Madeira],
//    the cluster-based ranking family the paper contrasts with priority and
//    level ranking — tasks on the same path are clustered onto one VM to
//    remove communication;
//  - SheftScheduler: SHEFT-style deadline-driven elasticity [Lin & Lu] —
//    start from HEFT+OneVMperTask on small instances and upgrade critical-
//    path VMs until the makespan drops below a deadline (no budget cap).
#pragma once

#include "scheduling/factory.hpp"
#include "scheduling/scheduler.hpp"

namespace cloudwf::scheduling {

class RoundRobinScheduler final : public Scheduler {
 public:
  RoundRobinScheduler(std::size_t pool_size, cloud::InstanceSize size);

  [[nodiscard]] std::string name() const override;
  [[nodiscard]] sim::Schedule run(const dag::Workflow& wf,
                                  const cloud::Platform& platform) const override;

 private:
  std::size_t pool_size_;
  cloud::InstanceSize size_;
};

class LeastLoadScheduler final : public Scheduler {
 public:
  LeastLoadScheduler(std::size_t pool_size, cloud::InstanceSize size);

  [[nodiscard]] std::string name() const override;
  [[nodiscard]] sim::Schedule run(const dag::Workflow& wf,
                                  const cloud::Platform& platform) const override;

 private:
  std::size_t pool_size_;
  cloud::InstanceSize size_;
};

class PchScheduler final : public Scheduler {
 public:
  explicit PchScheduler(cloud::InstanceSize size);

  [[nodiscard]] std::string name() const override;
  [[nodiscard]] sim::Schedule run(const dag::Workflow& wf,
                                  const cloud::Platform& platform) const override;

  /// The clustering itself (exposed for tests): clusters[i] lists the tasks
  /// of cluster i in path order; every task appears in exactly one cluster.
  [[nodiscard]] static std::vector<std::vector<dag::TaskId>> cluster_paths(
      const dag::Workflow& wf, const cloud::Platform& platform,
      cloud::InstanceSize size);

 private:
  cloud::InstanceSize size_;
};

class SheftScheduler final : public Scheduler {
 public:
  /// deadline_fraction in (0, 1]: the target makespan as a fraction of the
  /// small-instance seed schedule's makespan.
  explicit SheftScheduler(double deadline_fraction = 0.6);

  [[nodiscard]] std::string name() const override { return "SHEFT"; }
  [[nodiscard]] sim::Schedule run(const dag::Workflow& wf,
                                  const cloud::Platform& platform) const override;

  [[nodiscard]] double deadline_fraction() const noexcept {
    return deadline_fraction_;
  }

 private:
  double deadline_fraction_;
};

/// The comparator strategies beyond the paper's Fig. 4 legend, with labels
/// ("RoundRobin-s", "LeastLoad-s", "PCH-s", "SHEFT", ...). Pool-based
/// baselines default to 4 VMs.
[[nodiscard]] std::vector<Strategy> baseline_strategies(
    std::size_t pool_size = 4);

}  // namespace cloudwf::scheduling
