#include "exp/region_advisor.hpp"

#include <algorithm>

#include "exp/catalog.hpp"
#include "util/strings.hpp"

namespace cloudwf::exp {

std::vector<RegionChoice> region_sweep(const dag::Workflow& structure,
                                       const std::string& strategy_label,
                                       workload::ScenarioKind scenario,
                                       std::uint64_t seed) {
  const scheduling::Strategy& strategy = catalog::strategy(strategy_label);

  std::vector<RegionChoice> out;
  for (const cloud::Region& region : cloud::ec2_regions()) {
    const cloud::Platform platform(
        std::vector<cloud::Region>(cloud::ec2_regions().begin(),
                                   cloud::ec2_regions().end()),
        region.id);
    workload::ScenarioConfig cfg;
    cfg.seed = seed;
    const ExperimentRunner runner(platform, cfg);
    const dag::Workflow wf = runner.materialize(structure, scenario);
    const sim::Schedule schedule = strategy.scheduler->run(wf, platform);
    const sim::ScheduleMetrics m = sim::compute_metrics(wf, schedule, platform);

    RegionChoice choice;
    choice.region = region.id;
    choice.region_name = region.name;
    choice.makespan = m.makespan;
    choice.cost = m.total_cost;
    out.push_back(std::move(choice));
  }
  std::sort(out.begin(), out.end(), [](const RegionChoice& a, const RegionChoice& b) {
    if (a.cost != b.cost) return a.cost < b.cost;
    return a.region < b.region;
  });
  return out;
}

RegionChoice cheapest_region(const dag::Workflow& structure,
                             const std::string& strategy_label,
                             workload::ScenarioKind scenario) {
  return region_sweep(structure, strategy_label, scenario).front();
}

util::TextTable region_sweep_table(const std::vector<RegionChoice>& choices) {
  util::TextTable t({"region", "cost", "makespan (s)", "vs cheapest"});
  const util::Money cheapest =
      choices.empty() ? util::Money{} : choices.front().cost;
  for (const RegionChoice& c : choices) {
    const double pct =
        cheapest > util::Money{}
            ? 100.0 * static_cast<double>((c.cost - cheapest).micros()) /
                  static_cast<double>(cheapest.micros())
            : 0.0;
    t.add_row({c.region_name, c.cost.to_string(),
               util::format_double(c.makespan, 1),
               pct == 0.0 ? "cheapest" : "+" + util::format_double(pct, 1) + "%"});
  }
  return t;
}

}  // namespace cloudwf::exp
