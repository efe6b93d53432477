// Same question, same answer, on every surface.
//
// The questions come from the catalog (exp/catalog.hpp): every served
// workflow plus one family:N, x every scenario x two seeds x one paper
// strategy and one baseline, and every catalog strategy on one cell. Each
// is asked through ExperimentRunner::run_one, exp::run_grid_serial,
// /v1/evaluate, /v1/rank (paper strategies only), /v1/shard — JSON and
// binary — and a push-mode run_distributed against an in-process server.
// Every answer is reduced to exp::SweepRow and must equal run_one's.
//
// The refusals come from the catalog too: unknown names, family:N with N
// of 0 or above the limit, and an inverted seed range must get the same
// text from every surface that takes the field: `cloudwf` stderr, the JSON
// 400 body, the binary error frame and exp::validate_grid.
//
// Adding a workflow, scenario or strategy to the catalog grows both halves
// with no edit here.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdio>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <variant>
#include <vector>

#include "cloud/platform.hpp"
#include "dag/science.hpp"
#include "dist/coordinator.hpp"
#include "exp/catalog.hpp"
#include "exp/experiment.hpp"
#include "exp/sweep_grid.hpp"
#include "svc/binproto.hpp"
#include "svc/http.hpp"
#include "svc/protocol.hpp"
#include "svc/server.hpp"
#include "util/json.hpp"

namespace cloudwf {
namespace {

namespace catalog = exp::catalog;
using exp::SweepRow;

/// The one family:N question; small enough to run on every scenario.
constexpr const char* kFamilyWorkflow = "ligo:60";
constexpr const char* kPaperStrategy = "AllParExceed-m";
constexpr const char* kBaseline = "SCS";

/// Every served workflow plus one family:N, x every scenario x seeds 0:1 x
/// one paper strategy and one baseline.
exp::SweepGridSpec every_workflow_grid() {
  exp::SweepGridSpec grid;
  grid.workflows.assign(catalog::kWorkflowNames.begin(),
                        catalog::kWorkflowNames.end());
  grid.workflows.push_back(kFamilyWorkflow);
  grid.scenarios.assign(workload::kAllScenarioKinds.begin(),
                        workload::kAllScenarioKinds.end());
  grid.strategies = {kPaperStrategy, kBaseline};
  grid.seed_begin = 0;
  grid.seed_end = 1;
  return grid;
}

/// Every catalog strategy on one cell.
exp::SweepGridSpec every_strategy_grid() {
  exp::SweepGridSpec grid;
  grid.workflows = {"montage"};
  grid.scenarios = {workload::ScenarioKind::pareto};
  for (const scheduling::Strategy& s : catalog::strategies())
    grid.strategies.push_back(s.label);
  return grid;
}

std::string show(const SweepRow& r) {
  std::ostringstream out;
  out << r.seed << '|' << r.strategy << '|' << r.makespan_us << '|'
      << r.vm_cost_micros << '|' << r.egress_cost_micros << '|'
      << r.total_cost_micros << '|' << r.idle_us << '|' << r.busy_us << '|'
      << r.vms_used << '|' << r.total_btus << '|' << r.utilization_ppm << '|'
      << r.gain_pct_ppm << '|' << r.loss_pct_ppm;
  return out.str();
}

/// JSON prints its six double fields with 12 significant digits: a JSON
/// value, in fixed point, may sit one unit of the 12th digit (and one
/// rounding step) from the exact one.
bool within_json_precision(std::int64_t json, std::int64_t exact) {
  if (json == exact) return true;
  const double magnitude = std::fabs(static_cast<double>(exact));
  const double unit =
      magnitude > 0 ? std::pow(10.0, std::floor(std::log10(magnitude)) - 11)
                    : 0.0;
  return std::fabs(static_cast<double>(json - exact)) <= std::max(unit, 1.0);
}

void expect_same(const SweepRow& want, const SweepRow& got, bool from_json,
                 const std::string& where) {
  const auto fixed_ok = [&](std::int64_t a, std::int64_t b) {
    return from_json ? within_json_precision(b, a) : a == b;
  };
  const bool same =
      want.seed == got.seed && want.strategy == got.strategy &&
      want.vm_cost_micros == got.vm_cost_micros &&
      want.egress_cost_micros == got.egress_cost_micros &&
      want.total_cost_micros == got.total_cost_micros &&
      want.vms_used == got.vms_used && want.total_btus == got.total_btus &&
      fixed_ok(want.makespan_us, got.makespan_us) &&
      fixed_ok(want.idle_us, got.idle_us) &&
      fixed_ok(want.busy_us, got.busy_us) &&
      fixed_ok(want.utilization_ppm, got.utilization_ppm) &&
      fixed_ok(want.gain_pct_ppm, got.gain_pct_ppm) &&
      fixed_ok(want.loss_pct_ppm, got.loss_pct_ppm);
  EXPECT_TRUE(same) << where << "\n  want " << show(want) << "\n  got  "
                    << show(got);
}

/// A /v1/evaluate or /v1/rank JSON row, reduced to fixed point the way
/// exp::sweep_row scales the doubles.
SweepRow row_of_json(const util::Json& row) {
  const auto number = [&](const char* key) {
    const util::Json* field = row.find(key);
    if (field == nullptr) throw std::runtime_error(std::string("no ") + key);
    return field->as_number();
  };
  const auto integer = [&](const char* key) {
    return static_cast<std::int64_t>(number(key));
  };
  const auto fixed = [&](const char* key) {
    return static_cast<std::int64_t>(std::llround(number(key) * 1e6));
  };
  SweepRow out;
  out.seed = static_cast<std::uint64_t>(integer("seed"));
  out.strategy = row.find("strategy")->as_string();
  out.makespan_us = fixed("makespan_s");
  out.vm_cost_micros = integer("vm_cost_micros");
  out.egress_cost_micros = integer("egress_cost_micros");
  out.total_cost_micros = integer("total_cost_micros");
  out.idle_us = fixed("idle_s");
  out.busy_us = fixed("busy_s");
  out.vms_used = static_cast<std::uint32_t>(integer("vms_used"));
  out.total_btus = integer("total_btus");
  out.utilization_ppm = fixed("utilization");
  out.gain_pct_ppm = fixed("gain_pct");
  out.loss_pct_ppm = fixed("loss_pct");
  return out;
}

bool is_paper_strategy(const std::string& label) {
  for (const std::string& paper : scheduling::paper_strategy_labels())
    if (paper == label) return true;
  return false;
}

class CatalogConformance : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    svc::ServerConfig config;
    config.port = 0;
    config.workers = 2;
    server_ = new svc::Server(config);
    server_->start();
  }
  static void TearDownTestSuite() {
    server_->stop();
    delete server_;
    server_ = nullptr;
  }
  void SetUp() override {
    ASSERT_TRUE(client_.connect("127.0.0.1", server_->port()));
  }

  svc::HttpResponse post(const std::string& target, const std::string& body,
                         bool binary) {
    const auto response = client_.request(
        "POST", target, body, {},
        binary ? svc::kBinaryContentType : "application/json");
    if (!response) throw std::runtime_error("no response from " + target);
    return *response;
  }

  void expect_every_surface_agrees(const exp::SweepGridSpec& grid);

  static svc::Server* server_;
  svc::HttpClient client_;
  const cloud::Platform platform_ = cloud::Platform::ec2();
};

svc::Server* CatalogConformance::server_ = nullptr;

std::string evaluate_json_body(const svc::EvaluateRequest& request) {
  util::Json body = util::Json::object();
  body["workflow"] = request.workflow;
  body["strategy"] = request.strategy;
  body["scenario"] = std::string(workload::name_of(request.scenario));
  util::Json seeds = util::Json::array();
  seeds.push_back(static_cast<std::int64_t>(request.seed_begin));
  seeds.push_back(static_cast<std::int64_t>(request.seed_end));
  body["seeds"] = std::move(seeds);
  return body.dump();
}

std::string rank_json_body(const svc::RankRequest& request) {
  util::Json body = util::Json::object();
  body["workflow"] = request.workflow;
  body["scenario"] = std::string(workload::name_of(request.scenario));
  body["seed"] = static_cast<std::int64_t>(request.seed);
  return body.dump();
}

/// The message of an error answer in either format.
std::string refusal_of(const svc::HttpResponse& response, bool binary) {
  if (binary) {
    const svc::BinFrame frame = svc::decode_frame(response.body);
    const auto* error = std::get_if<svc::BinError>(&frame);
    return error ? error->message : "<not an error frame>";
  }
  const util::Json body = util::Json::parse(response.body);
  const util::Json* error = body.find("error");
  return error && error->is_string() ? error->as_string() : response.body;
}

/// The rows of a 200 answer to /v1/evaluate, /v1/rank or /v1/shard.
std::vector<SweepRow> rows_of(const svc::HttpResponse& response, bool binary,
                              const std::string& where) {
  if (response.status != 200)
    throw std::runtime_error(where + " answered " +
                             std::to_string(response.status) + ": " +
                             refusal_of(response, binary));
  if (binary) {
    svc::BinFrame frame = svc::decode_frame(response.body);
    if (auto* e = std::get_if<svc::BinEvaluateResponse>(&frame))
      return std::move(e->rows);
    if (auto* r = std::get_if<svc::BinRankResponse>(&frame))
      return std::move(r->rows);
    if (auto* s = std::get_if<svc::BinShardResponse>(&frame))
      return std::move(s->rows);
    throw std::runtime_error(where + ": unexpected frame");
  }
  const util::Json body = util::Json::parse(response.body);
  if (body.find("rows") != nullptr)
    return svc::decode_shard_result(body).rows;
  std::vector<SweepRow> rows;
  for (const util::Json& row : body.find("results")->as_array())
    rows.push_back(row_of_json(row));
  return rows;
}

void CatalogConformance::expect_every_surface_agrees(
    const exp::SweepGridSpec& grid) {
  const std::uint64_t cells = grid.cell_count();
  ASSERT_GT(cells, 0u);

  // The reference: run_one, one cell at a time.
  std::vector<SweepRow> want;
  for (std::uint64_t i = 0; i < cells; ++i) {
    const exp::GridCell cell = exp::cell_at(grid, i);
    workload::ScenarioConfig cfg;
    cfg.seed = cell.seed;
    const exp::ExperimentRunner runner(platform_, cfg,
                                       exp::ParallelConfig::serial());
    want.push_back(exp::sweep_row(
        runner.run_one(catalog::strategy(cell.strategy),
                       catalog::workflow(cell.workflow,
                                         catalog::kMaxServedTasks),
                       cell.scenario),
        cell.seed));
  }

  const auto expect_rows = [&](const std::vector<SweepRow>& got,
                               bool from_json, const std::string& surface) {
    ASSERT_EQ(got.size(), want.size()) << surface;
    for (std::uint64_t i = 0; i < cells; ++i) {
      const exp::GridCell cell = exp::cell_at(grid, i);
      expect_same(want[i], got[i], from_json,
                  surface + " " + cell.workflow + " " +
                      std::string(workload::name_of(cell.scenario)) +
                      " seed " + std::to_string(cell.seed));
    }
  };

  expect_rows(exp::run_grid_serial(grid, platform_), false,
              "run_grid_serial");

  exp::ShardSpec shard;
  shard.cell_end = cells;
  shard.grid = grid;
  for (const bool binary : {false, true}) {
    const std::string format = binary ? "binary" : "JSON";
    expect_rows(rows_of(post("/v1/shard",
                             binary ? svc::encode_frame(shard)
                                    : svc::shard_request_body(shard),
                             binary),
                        binary, "/v1/shard"),
                false, "/v1/shard " + format);

    std::vector<SweepRow> evaluated;
    std::vector<SweepRow> ranked(want.size());
    std::vector<bool> ranked_cell(want.size(), false);
    for (std::uint64_t i = 0; i < cells; ++i) {
      const exp::GridCell cell = exp::cell_at(grid, i);
      svc::EvaluateRequest request;
      request.workflow = cell.workflow;
      request.strategy = cell.strategy;
      request.scenario = cell.scenario;
      request.seed_begin = request.seed_end = cell.seed;
      const std::vector<SweepRow> rows = rows_of(
          post("/v1/evaluate",
               binary ? svc::encode_frame(request)
                      : evaluate_json_body(request),
               binary),
          binary, "/v1/evaluate");
      ASSERT_EQ(rows.size(), 1u);
      evaluated.push_back(rows.front());

      // /v1/rank answers the 19 legend strategies of a group at once; ask
      // it once per group, at the group's first cell.
      if (cell.strategy_index != 0) continue;
      svc::RankRequest rank;
      rank.workflow = cell.workflow;
      rank.scenario = cell.scenario;
      rank.seed = cell.seed;
      const std::vector<SweepRow> legend = rows_of(
          post("/v1/rank",
               binary ? svc::encode_frame(rank) : rank_json_body(rank),
               binary),
          binary, "/v1/rank");
      for (std::size_t k = 0; k < grid.strategies.size(); ++k) {
        if (!is_paper_strategy(grid.strategies[k])) continue;
        for (const SweepRow& row : legend)
          if (row.strategy == grid.strategies[k]) {
            ranked[i + k] = row;
            ranked_cell[i + k] = true;
          }
        ASSERT_TRUE(ranked_cell[i + k]) << grid.strategies[k];
      }
    }
    expect_rows(evaluated, !binary, "/v1/evaluate " + format);
    for (std::uint64_t i = 0; i < cells; ++i)
      if (ranked_cell[i])
        expect_same(want[i], ranked[i], !binary,
                    "/v1/rank " + format + " cell " + std::to_string(i));
  }

  std::vector<std::shared_ptr<dist::ShardTransport>> workers;
  for (const bool binary : {true, false}) {
    dist::HttpShardTransport::Options options;
    options.port = server_->port();
    options.binary = binary;
    workers.push_back(std::make_shared<dist::HttpShardTransport>(options));
  }
  expect_rows(dist::run_distributed(grid, workers).rows, false,
              "run_distributed");
}

TEST_F(CatalogConformance, EveryWorkflowAndScenarioGetsOneAnswer) {
  expect_every_surface_agrees(every_workflow_grid());
}

TEST_F(CatalogConformance, EveryStrategyGetsOneAnswer) {
  expect_every_surface_agrees(every_strategy_grid());
}

// --- refusals --------------------------------------------------------------

/// One invalid input: the field it sits in, the value as typed, and the
/// catalog's refusal text.
struct Refusal {
  std::string field;  ///< workflow | strategy | scenario | seeds
  std::string value;
  std::string text;
};

template <class Check>
std::string refusal_text(Check&& check) {
  try {
    check();
  } catch (const std::invalid_argument& e) {
    return e.what();
  }
  return "<accepted>";
}

std::vector<Refusal> refusals() {
  std::vector<Refusal> out;
  const auto workflow = [&](const std::string& value) {
    out.push_back({"workflow", value, refusal_text([&] {
                     catalog::check_workflow(value, catalog::kMaxServedTasks);
                   })});
  };
  workflow("no-such-workflow");
  workflow("no-such-family:10");
  for (const dag::science::Family f : dag::science::kAllFamilies) {
    const std::string family(dag::science::name_of(f));
    workflow(family + ":0");
    workflow(family + ":" + std::to_string(catalog::kMaxServedTasks + 1));
  }
  out.push_back({"strategy", "NoSuchStrategy", refusal_text([] {
                   (void)catalog::strategy("NoSuchStrategy");
                 })});
  out.push_back({"scenario", "no-such-scenario", refusal_text([] {
                   (void)catalog::scenario("no-such-scenario");
                 })});
  out.push_back({"seeds", "5:3", refusal_text([] {
                   catalog::check_seeds(5, 3, catalog::kMaxSeedsPerRequest);
                 })});
  return out;
}

/// `cloudwf <args>`'s stderr without the "error: " prefix and newline.
std::string cli_refusal(const std::string& args) {
  const std::string command =
      std::string("'") + CLOUDWF_CLI + "' " + args + " 2>&1 >/dev/null";
  FILE* pipe = ::popen(command.c_str(), "r");
  if (pipe == nullptr) return "<popen failed>";
  std::string out;
  std::array<char, 512> buffer{};
  while (std::fgets(buffer.data(), static_cast<int>(buffer.size()), pipe))
    out += buffer.data();
  ::pclose(pipe);
  const std::string prefix = "error: ";
  if (out.rfind(prefix, 0) == 0 && !out.empty() && out.back() == '\n')
    return out.substr(prefix.size(), out.size() - prefix.size() - 1);
  return out;
}

TEST_F(CatalogConformance, EveryRefusalHasOneText) {
  const std::vector<Refusal> cases = refusals();
  ASSERT_EQ(cases.size(), 2 * dag::science::kAllFamilies.size() + 5);
  for (const Refusal& c : cases) {
    ASSERT_NE(c.text, "<accepted>") << c.field << " " << c.value;
    // A valid question with one field replaced by the invalid value.
    std::string workflow = "montage";
    std::string strategy = "GAIN";
    std::string scenario = "pareto";
    std::uint64_t seed_begin = 0;
    std::uint64_t seed_end = 0;
    if (c.field == "workflow") workflow = c.value;
    if (c.field == "strategy") strategy = c.value;
    if (c.field == "scenario") scenario = c.value;
    if (c.field == "seeds") {
      seed_begin = 5;
      seed_end = 3;
    }
    const bool named_scenario = c.field == "scenario";

    std::vector<std::pair<std::string, std::string>> answers;
    const std::string cli_value = "'" + c.value + "'";
    const std::string sweep_flag = c.field == "strategy" ? "strategies"
                                   : c.field == "seeds"  ? "seeds"
                                                         : c.field + "s";
    answers.emplace_back("cloudwf sweep",
                         cli_refusal("sweep --" + sweep_flag + " " + cli_value));
    if (c.field == "strategy" || c.field == "scenario")
      answers.emplace_back(
          "cloudwf run",
          cli_refusal("run --workflow montage --" + c.field + " " + cli_value +
                      (c.field == "scenario" ? " --strategy GAIN" : "")));

    exp::SweepGridSpec grid;
    grid.workflows = {workflow};
    grid.scenarios = {workload::ScenarioKind::pareto};
    grid.strategies = {strategy};
    grid.seed_begin = seed_begin;
    grid.seed_end = seed_end;
    if (!named_scenario)
      answers.emplace_back("validate_grid",
                           refusal_text([&] { exp::validate_grid(grid); }));

    exp::ShardSpec shard;
    shard.cell_end = 1;
    shard.grid = grid;
    svc::EvaluateRequest request;
    request.workflow = workflow;
    request.strategy = strategy;
    request.seed_begin = seed_begin;
    request.seed_end = seed_end;
    svc::RankRequest rank;
    rank.workflow = workflow;

    for (const bool binary : {false, true}) {
      if (binary && named_scenario) continue;  // frames carry a scenario code
      const std::string format = binary ? " binary" : " JSON";
      std::string json_evaluate = evaluate_json_body(request);
      std::string json_rank = rank_json_body(rank);
      std::string json_shard = svc::shard_request_body(shard);
      if (named_scenario)
        for (std::string* body : {&json_evaluate, &json_rank, &json_shard})
          body->replace(body->find("\"pareto\""), 8, "\"" + scenario + "\"");

      const auto refused = [&](const std::string& target,
                               const std::string& body) {
        const svc::HttpResponse response = post(target, body, binary);
        EXPECT_EQ(response.status, 400) << target << format;
        return refusal_of(response, binary);
      };
      answers.emplace_back(
          "/v1/evaluate" + format,
          refused("/v1/evaluate",
                  binary ? svc::encode_frame(request) : json_evaluate));
      answers.emplace_back(
          "/v1/shard" + format,
          refused("/v1/shard", binary ? svc::encode_frame(shard) : json_shard));
      if (c.field == "workflow" || named_scenario)
        answers.emplace_back(
            "/v1/rank" + format,
            refused("/v1/rank", binary ? svc::encode_frame(rank) : json_rank));
    }

    for (const auto& [surface, text] : answers)
      EXPECT_EQ(text, c.text) << surface << " refusing " << c.field << " '"
                              << c.value << "'";
  }
}

TEST_F(CatalogConformance, OneShotCliCommandsHaveTheirOwnTaskLimit) {
  for (const std::string& value :
       {std::string("ligo:0"),
        "ligo:" + std::to_string(catalog::kMaxCliTasks + 1),
        std::string("no-such-workflow")})
    EXPECT_EQ(cli_refusal("run --strategy GAIN --workflow '" + value + "'"),
              refusal_text([&] {
                catalog::check_workflow(value, catalog::kMaxCliTasks);
              }));
}

}  // namespace
}  // namespace cloudwf
