// Workflow: a validated directed acyclic graph of Tasks with data-sized edges.
//
// This is the substrate every scheduler operates on. The paper's workflows
// (Montage, CSTEM, MapReduce, Sequential — Fig. 2) are instances built in
// dag/builders.hpp; random instances come from dag/generators.hpp.
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "dag/task.hpp"
#include "util/units.hpp"

namespace cloudwf::dag {

class StructureCache;

namespace detail {

/// Copyable, thread-safe holder for a workflow's lazily built
/// StructureCache. Copies share the built cache (the structure is equal by
/// construction); resetting one holder never disturbs another's pointer.
class StructureCacheSlot {
 public:
  StructureCacheSlot() = default;
  StructureCacheSlot(const StructureCacheSlot& other) : ptr_(other.get()) {}
  StructureCacheSlot(StructureCacheSlot&& other) noexcept : ptr_(other.get()) {}
  StructureCacheSlot& operator=(const StructureCacheSlot& other) {
    auto p = other.get();  // lock ordering: never hold both mutexes
    std::scoped_lock lock(mu_);
    ptr_ = std::move(p);
    return *this;
  }
  StructureCacheSlot& operator=(StructureCacheSlot&& other) noexcept {
    if (this != &other) *this = other;
    return *this;
  }

  [[nodiscard]] std::shared_ptr<const StructureCache> get() const {
    std::scoped_lock lock(mu_);
    return ptr_;
  }

  /// First builder wins: stores `built` only if the slot is empty, and
  /// returns whatever the slot now holds.
  std::shared_ptr<const StructureCache> set_if_empty(
      std::shared_ptr<const StructureCache> built) const {
    std::scoped_lock lock(mu_);
    if (!ptr_) ptr_ = std::move(built);
    return ptr_;
  }

  void reset() noexcept {
    std::scoped_lock lock(mu_);
    ptr_.reset();
  }

 private:
  mutable std::mutex mu_;
  mutable std::shared_ptr<const StructureCache> ptr_;
};

}  // namespace detail

struct Edge {
  TaskId from = kInvalidTask;
  TaskId to = kInvalidTask;

  /// Data shipped from `from` to `to` in GB. Negative means "inherit the
  /// producer task's output_data" (the common case).
  util::Gigabytes data = -1.0;

  friend bool operator==(const Edge&, const Edge&) = default;
};

class Workflow {
 public:
  Workflow() = default;
  explicit Workflow(std::string name) : name_(std::move(name)) {}

  /// Adds a task and returns its id. Names must be unique and non-empty;
  /// work must be positive.
  TaskId add_task(std::string name, util::Seconds work = 1.0,
                  util::Gigabytes output_data = 0.0);

  /// Adds a dependency edge. Duplicate edges and self-loops are rejected.
  /// data < 0 means the edge carries task(from).output_data.
  void add_edge(TaskId from, TaskId to, util::Gigabytes data = -1.0);

  [[nodiscard]] const std::string& name() const noexcept { return name_; }
  void set_name(std::string n) { name_ = std::move(n); }

  [[nodiscard]] std::size_t task_count() const noexcept { return tasks_.size(); }
  [[nodiscard]] std::size_t edge_count() const noexcept { return edges_.size(); }
  [[nodiscard]] bool empty() const noexcept { return tasks_.empty(); }

  [[nodiscard]] const Task& task(TaskId id) const;
  [[nodiscard]] Task& task(TaskId id);
  [[nodiscard]] std::span<const Task> tasks() const noexcept { return tasks_; }
  [[nodiscard]] std::span<const Edge> edges() const noexcept { return edges_; }

  /// Task id by unique name; throws std::out_of_range if absent.
  [[nodiscard]] TaskId task_by_name(std::string_view name) const;

  [[nodiscard]] const std::vector<TaskId>& successors(TaskId id) const;
  [[nodiscard]] const std::vector<TaskId>& predecessors(TaskId id) const;

  [[nodiscard]] bool has_edge(TaskId from, TaskId to) const;

  /// Effective data carried on edge (from,to) in GB: the per-edge override
  /// if set, otherwise the producer's output_data. Throws if no such edge.
  [[nodiscard]] util::Gigabytes edge_data(TaskId from, TaskId to) const;
  /// The same rule for an edge already in hand, e.g. one of edges().
  [[nodiscard]] util::Gigabytes edge_data(const Edge& e) const noexcept {
    return e.data >= 0 ? e.data : tasks_[e.from].output_data;
  }

  /// Tasks with no predecessors, ascending by id. Non-empty for a valid DAG.
  [[nodiscard]] std::vector<TaskId> entry_tasks() const;

  /// Tasks with no successors, ascending by id.
  [[nodiscard]] std::vector<TaskId> exit_tasks() const;

  /// Sum of all task works (reference seconds) — the sequential lower bound
  /// on total compute.
  [[nodiscard]] util::Seconds total_work() const noexcept;

  /// True iff the edge relation is acyclic (it is, by construction: add_edge
  /// rejects cycle-creating edges); exposed for tests and deserialization.
  [[nodiscard]] bool is_acyclic() const;

  /// Throws std::logic_error describing the first structural defect found
  /// (empty graph, unnamed/duplicate-named tasks, non-positive work, cycle).
  void validate() const;

  /// The structure-derived tables (adjacency CSR, topo order, levels, HEFT
  /// rank memos — see dag/structure_cache.hpp), built lazily on first call
  /// and shared by every scheduler that runs on this workflow. Invalidated
  /// by add_task/add_edge and by the mutable task() accessor (task works
  /// feed the cached largest-predecessor and rank tables). Throws on cyclic
  /// graphs, like topological_order.
  [[nodiscard]] std::shared_ptr<const StructureCache> structure() const;

 private:
  void check_task(TaskId id) const;
  [[nodiscard]] static std::uint64_t edge_key(TaskId from, TaskId to) noexcept {
    return (static_cast<std::uint64_t>(from) << 32) | to;
  }

  std::string name_ = "workflow";
  std::vector<Task> tasks_;
  std::vector<Edge> edges_;
  std::vector<std::vector<TaskId>> succ_;
  std::vector<std::vector<TaskId>> pred_;
  std::unordered_map<std::uint64_t, std::size_t> edge_index_;
  std::unordered_map<std::string, TaskId> name_index_;
  // While every edge goes from a lower to a higher id, adding another such
  // edge cannot create a cycle, so the O(V+E) reachability check is skipped.
  // This keeps generator-scale construction (10^4+ tasks) linear.
  bool all_edges_forward_ = true;
  detail::StructureCacheSlot structure_cache_;
};

}  // namespace cloudwf::dag
