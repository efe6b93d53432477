#include "check/differential.hpp"

#include <array>
#include <cmath>
#include <sstream>

#include "check/oracle.hpp"
#include "dag/generators.hpp"
#include "dag/science.hpp"
#include "exp/experiment.hpp"
#include "provisioning/policy.hpp"
#include "scheduling/factory.hpp"
#include "sim/validator.hpp"
#include "util/rng.hpp"

namespace cloudwf::check {

util::Json Divergence::to_json() const {
  util::Json d = util::Json::object();
  d["case"] = case_index;
  d["strategy"] = strategy;
  d["side"] = side;
  d["kind"] = kind;
  d["detail"] = detail;
  return d;
}

util::Json DifferentialResult::to_json() const {
  util::Json r = util::Json::object();
  r["cases"] = cases.size();
  r["schedules_checked"] = schedules_checked;
  r["ok"] = ok();
  util::Json list = util::Json::array();
  for (const Divergence& d : divergences) list.push_back(d.to_json());
  r["divergences"] = std::move(list);
  return r;
}

namespace {

/// RAII for the global verification flags — the VmPool's reuse index and
/// PlacementContext's AllPar reuse scan — that the naive runs hold on. Tests
/// may already hold them on; what we found is not knowable, so we restore
/// "off", matching the library default.
class ScopedVerification {
 public:
  ScopedVerification() {
    cloud::VmPool::set_index_verification(true);
    provisioning::PlacementContext::set_scan_verification(true);
  }
  ~ScopedVerification() {
    cloud::VmPool::set_index_verification(false);
    provisioning::PlacementContext::set_scan_verification(false);
  }
  ScopedVerification(const ScopedVerification&) = delete;
  ScopedVerification& operator=(const ScopedVerification&) = delete;
};

/// Rebuilds `wf` task-by-task into a brand-new Workflow. Copying a Workflow
/// shares its (possibly already built) StructureCache slot; the naive
/// reference must start cold, so this is the only honest way to get one.
dag::Workflow clone_cold(const dag::Workflow& wf) {
  dag::Workflow cold(wf.name());
  for (const dag::Task& t : wf.tasks())
    (void)cold.add_task(t.name, t.work, t.output_data);
  for (const dag::Edge& e : wf.edges()) cold.add_edge(e.from, e.to, e.data);
  return cold;
}

/// Bitwise comparison of two metric sets; empty string on agreement.
/// Doubles compare with ==, Money in exact integer micros — the differential
/// contract is bit-identity, not tolerance.
std::string diff_metrics(const sim::ScheduleMetrics& fast,
                         const sim::ScheduleMetrics& naive) {
  std::ostringstream os;
  os.precision(17);
  const auto field = [&os](const char* name, auto f, auto n) {
    if (os.tellp() > 0) return;  // first difference only
    if (f == n) return;
    os << name << ": fast " << f << " != naive " << n;
  };
  field("makespan", fast.makespan, naive.makespan);
  field("vm_cost_micros", fast.vm_cost.micros(), naive.vm_cost.micros());
  field("egress_cost_micros", fast.egress_cost.micros(),
        naive.egress_cost.micros());
  field("total_cost_micros", fast.total_cost.micros(),
        naive.total_cost.micros());
  field("total_idle", fast.total_idle, naive.total_idle);
  field("total_busy", fast.total_busy, naive.total_busy);
  field("vms_used", fast.vms_used, naive.vms_used);
  field("total_btus", fast.total_btus, naive.total_btus);
  field("utilization", fast.utilization, naive.utilization);
  return os.str();
}

std::string diff_relative(const sim::GainLoss& fast, const sim::GainLoss& naive) {
  std::ostringstream os;
  os.precision(17);
  if (fast.gain_pct != naive.gain_pct)
    os << "gain_pct: fast " << fast.gain_pct << " != naive " << naive.gain_pct;
  else if (fast.loss_pct != naive.loss_pct)
    os << "loss_pct: fast " << fast.loss_pct << " != naive " << naive.loss_pct;
  return os.str();
}

/// The science families the differential samples: all five, so the wide /
/// deep / fan-in regimes the paper's schedulers branch on all appear, and
/// so does montage, the shape that rents the most VMs per task.
constexpr std::array<dag::science::Family, 5> kDiffFamilies = {
    dag::science::Family::epigenomics, dag::science::Family::cybershake,
    dag::science::Family::ligo, dag::science::Family::sipht,
    dag::science::Family::montage};

/// Random DAG shape for case `i`, diverse enough to hit every structural
/// regime the schedulers branch on (chains, wide levels, skip edges) —
/// plus, for a config-controlled fraction of cases, real Pegasus-family
/// shapes at 50-500 tasks, where level widths dwarf anything the small
/// layered generator produces.
dag::Workflow random_case_dag(std::size_t index, util::Rng& rng,
                              const DifferentialConfig& config) {
  if (index == 0 && config.large_case_tasks > 0) {
    const dag::science::Family family =
        kDiffFamilies[rng.below(kDiffFamilies.size())];
    dag::Workflow wf = dag::science::scaled(family, config.large_case_tasks);
    wf.set_name("diff-large-" + std::string(dag::science::name_of(family)));
    return wf;
  }
  if (rng.chance(config.science_fraction)) {
    const dag::science::Family family =
        kDiffFamilies[rng.below(kDiffFamilies.size())];
    const std::size_t target = 50 + rng.below(451);  // 50-500 tasks
    dag::Workflow wf = dag::science::scaled(family, target);
    wf.set_name("diff-sci-" + std::to_string(index));
    return wf;
  }
  dag::generators::LayeredConfig cfg;
  cfg.levels = static_cast<std::size_t>(rng.between(2, 8));
  cfg.min_width = 1;
  cfg.max_width = static_cast<std::size_t>(rng.between(1, 6));
  cfg.edge_density = rng.uniform(0.2, 0.9);
  cfg.allow_skip_edges = rng.chance(0.6);
  cfg.skip_density = rng.uniform(0.0, 0.3);
  dag::Workflow wf = dag::generators::random_layered(cfg, rng);
  wf.set_name("diff-case-" + std::to_string(index));
  return wf;
}

}  // namespace

DifferentialResult run_differential(
    const DifferentialConfig& config,
    const std::function<void(std::size_t, std::size_t)>& progress) {
  DifferentialResult result;
  const std::vector<scheduling::Strategy> strategies =
      scheduling::paper_strategies();

  for (std::size_t i = 0; i < config.cases; ++i) {
    // Per-case seed streams: one for the DAG shape, one for the scenario.
    std::uint64_t stream = config.seed + 0x9e3779b97f4a7c15ULL * (i + 1);
    const std::uint64_t dag_seed = util::splitmix64(stream);
    const std::uint64_t scenario_seed = util::splitmix64(stream);
    const std::uint64_t pick = util::splitmix64(stream);

    util::Rng dag_rng(dag_seed);
    const dag::Workflow structure = random_case_dag(i, dag_rng, config);

    workload::ScenarioConfig scenario;
    scenario.kind = workload::kDifferentialScenarios
        [pick % workload::kDifferentialScenarios.size()];
    scenario.seed = scenario_seed;

    CaseInfo info;
    info.index = i;
    info.dag_seed = dag_seed;
    info.scenario_seed = scenario_seed;
    info.scenario = scenario.kind;
    info.tasks = structure.task_count();
    info.edges = structure.edge_count();
    result.cases.push_back(info);

    const auto complain = [&result, i](std::string strategy, std::string side,
                                       std::string kind, std::string detail) {
      result.divergences.push_back(Divergence{i, std::move(strategy),
                                              std::move(side), std::move(kind),
                                              std::move(detail)});
    };

    // Fast path: the production pipeline — shared structure cache, memoized
    // placement contexts, hoisted reference, optionally parallel.
    exp::ExperimentRunner runner(cloud::Platform::ec2(), scenario,
                                 exp::ParallelConfig{config.fast_path_threads});
    const std::vector<exp::RunResult> fast =
        runner.run_all(structure, scenario.kind);

    // Naive reference: cold workflow, fresh schedulers, index and scan
    // verification.
    // The platform must carry the same scenario environment (cold-start
    // table, price schedule) the fast path derived, or the two sides would
    // legitimately differ.
    const dag::Workflow materialized =
        runner.materialize(structure, scenario.kind);
    const dag::Workflow cold = clone_cold(materialized);
    const cloud::Platform platform = runner.scenario_platform(scenario.kind);

    ScopedVerification verify;

    sim::ScheduleMetrics naive_reference;
    {
      const scheduling::Strategy ref = scheduling::reference_strategy();
      const sim::Schedule schedule = ref.scheduler->run(cold, platform);
      const OracleReport report = check_schedule(cold, schedule, platform);
      ++result.schedules_checked;
      if (!report.ok())
        complain(ref.label, "naive", "oracle", report.to_string());
      naive_reference = sim::compute_metrics(cold, schedule, platform);
    }

    for (const exp::RunResult& fast_run : fast) {
      // Fresh scheduler instance: strategy_by_label constructs a new object,
      // so no memo built during the fast path can leak into the naive side.
      const scheduling::Strategy naive_strategy =
          scheduling::strategy_by_label(fast_run.strategy);
      const sim::Schedule schedule =
          naive_strategy.scheduler->run(cold, platform);
      ++result.schedules_checked;

      const OracleReport report = check_schedule(cold, schedule, platform);
      if (!report.ok()) {
        complain(fast_run.strategy, "naive", "oracle", report.to_string());
        continue;
      }

      const sim::ScheduleMetrics naive_metrics =
          sim::compute_metrics(cold, schedule, platform);
      const std::string metric_diff = diff_metrics(fast_run.metrics, naive_metrics);
      if (!metric_diff.empty()) {
        complain(fast_run.strategy, "both", "metrics", metric_diff);
        continue;
      }

      const sim::GainLoss naive_relative =
          sim::relative_to_reference(naive_metrics, naive_reference);
      const std::string relative_diff =
          diff_relative(fast_run.relative, naive_relative);
      if (!relative_diff.empty())
        complain(fast_run.strategy, "both", "relative", relative_diff);
    }

    // The fast path validated its schedules internally (validate_or_throw in
    // run_one_on); the oracle additionally certifies billing + metrics, so
    // re-run the fast side through the oracle too. Rebuilding the schedule
    // off the same shared-cache workflow reproduces the fast path exactly.
    for (const scheduling::Strategy& strategy : strategies) {
      const sim::Schedule schedule =
          strategy.scheduler->run(materialized, platform);
      ++result.schedules_checked;
      const OracleReport report =
          check_schedule(materialized, schedule, platform);
      if (!report.ok())
        complain(strategy.label, "fast", "oracle", report.to_string());
    }

    if (progress) progress(i + 1, config.cases);
  }

  return result;
}

}  // namespace cloudwf::check
