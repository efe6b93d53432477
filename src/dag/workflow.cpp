#include "dag/workflow.hpp"

#include <algorithm>
#include <stdexcept>
#include <unordered_set>

#include "dag/structure_cache.hpp"
#include "obs/work.hpp"

namespace cloudwf::dag {

TaskId Workflow::add_task(std::string name, util::Seconds work,
                          util::Gigabytes output_data) {
  if (name.empty()) throw std::invalid_argument("add_task: empty name");
  if (!(work > 0)) throw std::invalid_argument("add_task: work must be positive");
  if (output_data < 0)
    throw std::invalid_argument("add_task: negative output_data");
  if (name_index_.contains(name))
    throw std::invalid_argument("add_task: duplicate task name '" + name + "'");

  const auto id = static_cast<TaskId>(tasks_.size());
  name_index_.emplace(name, id);
  tasks_.push_back(Task{id, std::move(name), work, output_data});
  succ_.emplace_back();
  pred_.emplace_back();
  structure_cache_.reset();
  return id;
}

void Workflow::add_edge(TaskId from, TaskId to, util::Gigabytes data) {
  check_task(from);
  check_task(to);
  if (from == to) throw std::invalid_argument("add_edge: self loop");
  if (has_edge(from, to)) throw std::invalid_argument("add_edge: duplicate edge");

  // Reject edges that would create a cycle: `to` must not already reach
  // `from`. If all edges so far (and this one) point from a lower id to a
  // higher id, no cycle is possible and the DFS is skipped.
  if (!(all_edges_forward_ && from < to)) {
    std::vector<TaskId> stack{to};
    std::vector<bool> seen(tasks_.size(), false);
    while (!stack.empty()) {
      const TaskId cur = stack.back();
      stack.pop_back();
      if (cur == from) throw std::invalid_argument("add_edge: would create a cycle");
      if (seen[cur]) continue;
      seen[cur] = true;
      for (TaskId s : succ_[cur]) stack.push_back(s);
    }
    if (from >= to) all_edges_forward_ = false;
  }

  edge_index_.emplace(edge_key(from, to), edges_.size());
  edges_.push_back(Edge{from, to, data});
  succ_[from].push_back(to);
  pred_[to].push_back(from);
  structure_cache_.reset();
}

const Task& Workflow::task(TaskId id) const {
  check_task(id);
  return tasks_[id];
}

Task& Workflow::task(TaskId id) {
  check_task(id);
  // Handing out a mutable Task lets callers change work/output_data, which
  // feed the cached largest-predecessor, rank and edge-data tables, and the
  // name and work that validate()'s verdict covers.
  structure_cache_.reset();
  return tasks_[id];
}

std::shared_ptr<const StructureCache> Workflow::structure() const {
  if (auto cached = structure_cache_.get()) return cached;
  return structure_cache_.set_if_empty(
      std::make_shared<const StructureCache>(*this));
}

TaskId Workflow::task_by_name(std::string_view name) const {
  const auto it = name_index_.find(std::string(name));
  if (it == name_index_.end())
    throw std::out_of_range("task_by_name: no task named '" + std::string(name) + "'");
  return it->second;
}

const std::vector<TaskId>& Workflow::successors(TaskId id) const {
  check_task(id);
  return succ_[id];
}

const std::vector<TaskId>& Workflow::predecessors(TaskId id) const {
  check_task(id);
  return pred_[id];
}

bool Workflow::has_edge(TaskId from, TaskId to) const {
  check_task(from);
  check_task(to);
  return edge_index_.contains(edge_key(from, to));
}

util::Gigabytes Workflow::edge_data(TaskId from, TaskId to) const {
  check_task(from);
  check_task(to);
  const auto it = edge_index_.find(edge_key(from, to));
  if (it == edge_index_.end()) throw std::out_of_range("edge_data: no such edge");
  return edge_data(edges_[it->second]);
}

std::vector<TaskId> Workflow::entry_tasks() const {
  std::vector<TaskId> out;
  for (const Task& t : tasks_)
    if (pred_[t.id].empty()) out.push_back(t.id);
  return out;
}

std::vector<TaskId> Workflow::exit_tasks() const {
  std::vector<TaskId> out;
  for (const Task& t : tasks_)
    if (succ_[t.id].empty()) out.push_back(t.id);
  return out;
}

util::Seconds Workflow::total_work() const noexcept {
  util::Seconds sum = 0;
  for (const Task& t : tasks_) sum += t.work;
  return sum;
}

bool Workflow::is_acyclic() const {
  // Kahn's algorithm; acyclic iff all tasks get popped.
  std::vector<std::size_t> indeg(tasks_.size());
  for (std::size_t i = 0; i < tasks_.size(); ++i) indeg[i] = pred_[i].size();
  std::vector<TaskId> queue;
  for (std::size_t i = 0; i < tasks_.size(); ++i)
    if (indeg[i] == 0) queue.push_back(static_cast<TaskId>(i));
  std::size_t popped = 0;
  while (!queue.empty()) {
    const TaskId cur = queue.back();
    queue.pop_back();
    ++popped;
    for (TaskId s : succ_[cur])
      if (--indeg[s] == 0) queue.push_back(s);
  }
  return popped == tasks_.size();
}

void Workflow::validate() const {
  if (structure_cache_.validated()) return;
  obs::add_work(obs::Work::workflow_checks, 1);
  if (tasks_.empty()) throw std::logic_error("workflow '" + name_ + "' is empty");
  std::unordered_set<std::string> names;
  for (const Task& t : tasks_) {
    if (t.name.empty())
      throw std::logic_error("workflow '" + name_ + "': unnamed task");
    if (!(t.work > 0))
      throw std::logic_error("workflow '" + name_ + "': task '" + t.name +
                             "' has non-positive work");
    if (!names.insert(t.name).second)
      throw std::logic_error("workflow '" + name_ + "': duplicate task name '" +
                             t.name + "'");
  }
  if (!is_acyclic()) throw std::logic_error("workflow '" + name_ + "' has a cycle");
  structure_cache_.set_validated();
}

void Workflow::check_task(TaskId id) const {
  if (id >= tasks_.size()) throw std::out_of_range("invalid TaskId");
}

}  // namespace cloudwf::dag
