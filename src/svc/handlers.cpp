#include "svc/handlers.hpp"

#include "exp/catalog.hpp"
#include "obs/trace.hpp"

namespace cloudwf::svc {

namespace {

std::string cell_key(const std::string& workflow,
                     workload::ScenarioKind scenario, std::uint64_t seed,
                     const std::string& strategy) {
  std::string key = workflow;
  key += '|';
  key += workload::name_of(scenario);
  key += '|';
  key += std::to_string(seed);
  key += '|';
  key += strategy;
  return key;
}

/// The serial evaluation of one cell — identical to what `cloudwf run
/// --workflow W --strategy S --scenario K --seed N` computes, packaged as a
/// RunResult (metrics + gain/loss vs the OneVMperTask-s reference).
exp::RunResult evaluate_cell(const cloud::Platform& platform,
                             const dag::Workflow& structure,
                             const scheduling::Strategy& strategy,
                             workload::ScenarioKind scenario,
                             std::uint64_t seed) {
  workload::ScenarioConfig cfg;
  cfg.seed = seed;
  const exp::ExperimentRunner runner(platform, cfg,
                                     exp::ParallelConfig::serial());
  return runner.run_one(strategy, structure, scenario);
}

}  // namespace

dag::Workflow workflow_by_name(const std::string& name) {
  try {
    return exp::catalog::workflow(name, exp::catalog::kMaxServedTasks);
  } catch (const std::invalid_argument& e) {
    throw BadRequest(e.what());
  }
}

util::Json run_result_json(const exp::RunResult& result, std::uint64_t seed) {
  util::Json row = util::Json::object();
  row["seed"] = static_cast<std::int64_t>(seed);
  row["strategy"] = result.strategy;
  row["makespan_s"] = result.metrics.makespan;
  row["vm_cost_micros"] = result.metrics.vm_cost.micros();
  row["egress_cost_micros"] = result.metrics.egress_cost.micros();
  row["total_cost_micros"] = result.metrics.total_cost.micros();
  row["idle_s"] = result.metrics.total_idle;
  row["busy_s"] = result.metrics.total_busy;
  row["vms_used"] = result.metrics.vms_used;
  row["total_btus"] = result.metrics.total_btus;
  row["utilization"] = result.metrics.utilization;
  row["gain_pct"] = result.relative.gain_pct;
  row["loss_pct"] = result.relative.loss_pct;
  return row;
}

std::vector<ResultRow> evaluate_rows(const EvaluateRequest& request,
                                     const cloud::Platform& platform,
                                     EvalCache* cache) {
  obs::PhaseScope phase("svc: evaluate");
  validate_request(request);  // again: a worker may be handed anything
  const scheduling::Strategy& strategy =
      exp::catalog::strategy(request.strategy);
  const dag::Workflow structure =
      exp::catalog::workflow(request.workflow, exp::catalog::kMaxServedTasks);

  std::vector<ResultRow> rows;
  rows.reserve(request.seed_count());
  for (std::uint64_t seed = request.seed_begin; seed <= request.seed_end;
       ++seed) {
    if (cache) {
      const std::string key =
          cell_key(request.workflow, request.scenario, seed, request.strategy);
      auto it = cache->run.find(key);
      if (it == cache->run.end())
        it = cache->run
                 .emplace(key, evaluate_cell(platform, structure, strategy,
                                             request.scenario, seed))
                 .first;
      rows.push_back({seed, it->second});
    } else {
      rows.push_back({seed, evaluate_cell(platform, structure, strategy,
                                          request.scenario, seed)});
    }
  }
  return rows;
}

std::vector<ResultRow> rank_rows(const RankRequest& request,
                                 const cloud::Platform& platform,
                                 EvalCache* cache) {
  obs::PhaseScope phase("svc: rank");
  validate_request(request);
  const auto compute = [&] {
    const dag::Workflow structure =
        exp::catalog::workflow(request.workflow, exp::catalog::kMaxServedTasks);
    workload::ScenarioConfig cfg;
    cfg.seed = request.seed;
    const exp::ExperimentRunner runner(platform, cfg,
                                       exp::ParallelConfig::serial());
    // Serial inside the worker: the service pool is the parallelism layer,
    // nesting another pool per request would only oversubscribe it.
    return runner.run_all(structure, request.scenario,
                          exp::ParallelConfig::serial());
  };

  const std::vector<exp::RunResult>* results = nullptr;
  std::vector<exp::RunResult> fresh;
  if (cache) {
    const std::string key =
        cell_key(request.workflow, request.scenario, request.seed, "*rank*");
    auto it = cache->rank.find(key);
    if (it == cache->rank.end()) it = cache->rank.emplace(key, compute()).first;
    results = &it->second;
  } else {
    fresh = compute();
    results = &fresh;
  }

  std::vector<ResultRow> rows;
  rows.reserve(results->size());
  for (const exp::RunResult& row : *results)
    rows.push_back({request.seed, row});
  return rows;
}

std::string evaluate_body(const EvaluateRequest& request,
                          const cloud::Platform& platform, EvalCache* cache) {
  util::Json results = util::Json::array();
  for (const ResultRow& row : evaluate_rows(request, platform, cache))
    results.push_back(run_result_json(row.result, row.seed));

  util::Json body = util::Json::object();
  body["endpoint"] = "evaluate";
  body["workflow"] = request.workflow;
  body["strategy"] = request.strategy;
  body["scenario"] = std::string(workload::name_of(request.scenario));
  body["results"] = std::move(results);
  return body.dump();
}

std::string rank_body(const RankRequest& request,
                      const cloud::Platform& platform, EvalCache* cache) {
  util::Json results = util::Json::array();
  for (const ResultRow& row : rank_rows(request, platform, cache))
    results.push_back(run_result_json(row.result, row.seed));

  util::Json body = util::Json::object();
  body["endpoint"] = "rank";
  body["workflow"] = request.workflow;
  body["scenario"] = std::string(workload::name_of(request.scenario));
  body["seed"] = static_cast<std::int64_t>(request.seed);
  body["results"] = std::move(results);
  return body.dump();
}

std::vector<exp::SweepRow> shard_rows(const exp::ShardSpec& shard,
                                      const cloud::Platform& platform) {
  obs::PhaseScope phase("svc: shard");
  try {
    return exp::run_shard(shard, platform);
  } catch (const std::invalid_argument& e) {
    throw BadRequest(e.what());
  }
}

util::Json sweep_row_json(const exp::SweepRow& row) {
  util::Json out = util::Json::object();
  out["seed"] = static_cast<std::int64_t>(row.seed);
  out["strategy"] = row.strategy;
  out["makespan_us"] = row.makespan_us;
  out["vm_cost_micros"] = row.vm_cost_micros;
  out["egress_cost_micros"] = row.egress_cost_micros;
  out["total_cost_micros"] = row.total_cost_micros;
  out["idle_us"] = row.idle_us;
  out["busy_us"] = row.busy_us;
  out["vms_used"] = static_cast<std::int64_t>(row.vms_used);
  out["total_btus"] = row.total_btus;
  out["utilization_ppm"] = row.utilization_ppm;
  out["gain_pct_ppm"] = row.gain_pct_ppm;
  out["loss_pct_ppm"] = row.loss_pct_ppm;
  return out;
}

std::string shard_body(const exp::ShardSpec& shard,
                       const cloud::Platform& platform) {
  util::Json rows = util::Json::array();
  for (const exp::SweepRow& row : shard_rows(shard, platform))
    rows.push_back(sweep_row_json(row));

  util::Json body = util::Json::object();
  body["endpoint"] = "shard";
  body["shard_id"] = static_cast<std::int64_t>(shard.shard_id);
  body["rows"] = std::move(rows);
  return body.dump();
}

}  // namespace cloudwf::svc
