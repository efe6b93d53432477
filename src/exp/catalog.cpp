#include "exp/catalog.hpp"

#include <charconv>
#include <map>
#include <stdexcept>
#include <string>

#include "dag/builders.hpp"
#include "dag/science.hpp"
#include "provisioning/policy.hpp"
#include "scheduling/baselines.hpp"

namespace cloudwf::exp::catalog {

namespace {

using Builder = dag::Workflow (*)();

/// Builders of kWorkflowNames, index for index.
constexpr std::array<Builder, kWorkflowNames.size()> kBuilders = {
    [] { return dag::builders::montage24(); },
    [] { return dag::builders::cstem(); },
    [] { return dag::builders::map_reduce(); },
    [] { return dag::builders::sequential_chain(); },
    [] { return dag::science::epigenomics(); },
    [] { return dag::science::cybershake(); },
    [] { return dag::science::ligo(); },
    [] { return dag::science::sipht(); },
};

[[noreturn]] void reject(const std::string& message) {
  throw std::invalid_argument(message);
}

/// "a|b|c": the names of `items`, for a refusal's list of alternatives.
template <class Items, class Name>
std::string alternatives(const Items& items, Name name) {
  std::string out;
  for (const auto& item : items) {
    if (!out.empty()) out += '|';
    out += name(item);
  }
  return out;
}

/// A resolved workflow name: a served index, or a family and task count.
struct WorkflowName {
  std::size_t served = kWorkflowNames.size();
  dag::science::Family family = dag::science::Family::epigenomics;
  std::size_t tasks = 0;
};

WorkflowName resolve_workflow(std::string_view name, std::uint64_t max_tasks) {
  WorkflowName out;
  for (std::size_t i = 0; i < kWorkflowNames.size(); ++i)
    if (name == kWorkflowNames[i]) {
      out.served = i;
      return out;
    }
  const std::size_t colon = name.find(':');
  if (colon == std::string_view::npos)
    reject("unknown workflow '" + std::string(name) + "' (" +
           alternatives(kWorkflowNames,
                        [](std::string_view n) { return std::string(n); }) +
           ", or family:N)");
  try {
    out.family = dag::science::family_by_name(name.substr(0, colon));
  } catch (const std::invalid_argument&) {
    reject("unknown workflow family '" + std::string(name.substr(0, colon)) +
           "' in '" + std::string(name) + "' (" +
           alternatives(dag::science::kAllFamilies,
                        [](dag::science::Family f) {
                          return std::string(dag::science::name_of(f));
                        }) +
           ")");
  }
  const std::string_view digits = name.substr(colon + 1);
  std::uint64_t tasks = 0;
  const auto [end, ec] =
      std::from_chars(digits.data(), digits.data() + digits.size(), tasks);
  if (digits.empty() || ec != std::errc() ||
      end != digits.data() + digits.size() || tasks == 0 || tasks > max_tasks)
    reject("task count in '" + std::string(name) + "' must be 1 to " +
           std::to_string(max_tasks));
  out.tasks = static_cast<std::size_t>(tasks);
  return out;
}

struct StrategyTable {
  std::vector<scheduling::Strategy> entries;
  /// Every accepted spelling -> its entry.
  std::map<std::string, std::size_t, std::less<>> index;

  void add(scheduling::Strategy strategy) {
    index.emplace(strategy.label, entries.size());
    entries.push_back(std::move(strategy));
  }
};

StrategyTable build_table() {
  StrategyTable table;
  // Own legend instances, not paper_strategies()' cached ones: sweeps
  // measured 2-4 % slower running those (object placement, cause unknown).
  for (const std::string& label : scheduling::paper_strategy_labels())
    table.add(scheduling::strategy_by_label(label));
  // The homogeneous series on every size, under the label suffix and the
  // full size name: the plots stop at large, strategy_by_label does not.
  for (int k = 0; k < 5; ++k) {
    const std::string stem =
        std::string(provisioning::name_of(
            static_cast<provisioning::ProvisioningKind>(k))) +
        '-';
    for (const cloud::InstanceSize size : cloud::kAllSizes) {
      const std::string label = stem + std::string(cloud::suffix_of(size));
      if (!table.index.contains(label))
        table.add(scheduling::strategy_by_label(label));
      table.index.emplace(stem + std::string(cloud::name_of(size)),
                          table.index.find(label)->second);
    }
  }
  for (scheduling::Strategy& s : scheduling::baseline_strategies())
    table.add(std::move(s));
  return table;
}

const StrategyTable& table() {
  static const StrategyTable built = build_table();
  return built;
}

}  // namespace

void check_workflow(std::string_view name, std::uint64_t max_tasks) {
  (void)resolve_workflow(name, max_tasks);
}

dag::Workflow workflow(std::string_view name, std::uint64_t max_tasks) {
  const WorkflowName resolved = resolve_workflow(name, max_tasks);
  if (resolved.served < kWorkflowNames.size())
    return kBuilders[resolved.served]();
  return dag::science::scaled(resolved.family, resolved.tasks);
}

const std::vector<scheduling::Strategy>& strategies() {
  return table().entries;
}

const scheduling::Strategy& strategy(std::string_view label) {
  const StrategyTable& t = table();
  const auto it = t.index.find(label);
  if (it == t.index.end())
    reject("unknown strategy '" + std::string(label) +
           "' (see `cloudwf list` for the accepted labels)");
  return t.entries[it->second];
}

workload::ScenarioKind scenario(std::string_view name) {
  for (const workload::ScenarioKind kind : workload::kAllScenarioKinds)
    if (name == workload::name_of(kind)) return kind;
  reject("unknown scenario '" + std::string(name) + "' (" +
         alternatives(workload::kAllScenarioKinds,
                      [](workload::ScenarioKind k) {
                        return std::string(workload::name_of(k));
                      }) +
         ")");
}

void check_seeds(std::uint64_t first, std::uint64_t last,
                 std::uint64_t max_count) {
  if (last < first)
    reject("seed range is inverted (first " + std::to_string(first) +
           " > last " + std::to_string(last) + ")");
  if (last - first >= max_count)
    reject("seed range exceeds " + std::to_string(max_count) + " seeds");
}

}  // namespace cloudwf::exp::catalog
