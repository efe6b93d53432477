// Schema tests for the service protocol: strict decoding, strict errors.
#include "svc/protocol.hpp"

#include <gtest/gtest.h>

#include <algorithm>

#include "exp/catalog.hpp"
#include "util/json.hpp"

namespace cloudwf::svc {
namespace {

util::Json parse(const std::string& text) { return util::Json::parse(text); }

TEST(Protocol, DecodesSingleSeedEvaluate) {
  const EvaluateRequest req = decode_evaluate(parse(
      R"({"workflow":"montage","strategy":"AllParExceed-m","scenario":"pareto","seed":7})"));
  EXPECT_EQ(req.workflow, "montage");
  EXPECT_EQ(req.strategy, "AllParExceed-m");
  EXPECT_EQ(req.scenario, workload::ScenarioKind::pareto);
  EXPECT_EQ(req.seed_begin, 7u);
  EXPECT_EQ(req.seed_end, 7u);
  EXPECT_EQ(req.seed_count(), 1u);
}

TEST(Protocol, DecodesSeedRange) {
  const EvaluateRequest req = decode_evaluate(parse(
      R"({"workflow":"cstem","strategy":"CPA-Eager","seeds":[10,29]})"));
  EXPECT_EQ(req.seed_begin, 10u);
  EXPECT_EQ(req.seed_end, 29u);
  EXPECT_EQ(req.seed_count(), 20u);
  EXPECT_EQ(req.scenario, workload::ScenarioKind::pareto);  // default
}

TEST(Protocol, ScenarioNamesRoundTrip) {
  const auto parse_scenario = [](const std::string& name) {
    return decode_rank(parse(R"({"workflow":"montage","scenario":")" + name +
                             R"("})"))
        .scenario;
  };
  EXPECT_EQ(parse_scenario("pareto"), workload::ScenarioKind::pareto);
  EXPECT_EQ(parse_scenario("best-case"), workload::ScenarioKind::best_case);
  EXPECT_EQ(parse_scenario("worst-case"), workload::ScenarioKind::worst_case);
  EXPECT_EQ(parse_scenario("data-intensive"),
            workload::ScenarioKind::data_intensive);
  EXPECT_EQ(parse_scenario("cold-start"), workload::ScenarioKind::cold_start);
  EXPECT_EQ(parse_scenario("variable-price"),
            workload::ScenarioKind::variable_price);
  EXPECT_EQ(parse_scenario("deadline-budget"),
            workload::ScenarioKind::constrained);
  // Every kind's canonical name parses back to itself.
  for (workload::ScenarioKind kind : workload::kAllScenarioKinds)
    EXPECT_EQ(parse_scenario(std::string(workload::name_of(kind))), kind);
  EXPECT_THROW((void)parse_scenario("bogus"), BadRequest);
}

TEST(Protocol, RejectsMissingFields) {
  EXPECT_THROW(decode_evaluate(parse(R"({"strategy":"GAIN","seed":1})")),
               BadRequest);
  EXPECT_THROW(decode_evaluate(parse(R"({"workflow":"montage","seed":1})")),
               BadRequest);
  EXPECT_THROW(
      decode_evaluate(parse(R"({"workflow":"montage","strategy":"GAIN"})")),
      BadRequest);
}

TEST(Protocol, RejectsUnknownWorkflow) {
  EXPECT_THROW(decode_evaluate(parse(
                   R"({"workflow":"../etc/passwd","strategy":"GAIN","seed":1})")),
               BadRequest);
}

TEST(Protocol, RejectsBadSeeds) {
  const char* cases[] = {
      R"({"workflow":"montage","strategy":"GAIN","seed":-1})",
      R"({"workflow":"montage","strategy":"GAIN","seed":1.5})",
      R"({"workflow":"montage","strategy":"GAIN","seed":"7"})",
      R"({"workflow":"montage","strategy":"GAIN","seeds":[5]})",
      R"({"workflow":"montage","strategy":"GAIN","seeds":[9,3]})",
      R"({"workflow":"montage","strategy":"GAIN","seeds":[0,100000]})",
      R"({"workflow":"montage","strategy":"GAIN","seed":1,"seeds":[0,1]})",
  };
  for (const char* body : cases)
    EXPECT_THROW(decode_evaluate(parse(body)), BadRequest) << body;
}

TEST(Protocol, RejectsNonObjectBody) {
  EXPECT_THROW(decode_evaluate(parse("[1,2,3]")), BadRequest);
  EXPECT_THROW(decode_rank(parse("\"montage\"")), BadRequest);
}

TEST(Protocol, DecodesRankWithDefaultSeed) {
  const RankRequest req = decode_rank(parse(R"({"workflow":"mapreduce"})"));
  EXPECT_EQ(req.workflow, "mapreduce");
  EXPECT_EQ(req.seed, 0u);
}

TEST(Protocol, ErrorBodyIsJson) {
  const std::string body = error_body("queue \"full\"");
  EXPECT_EQ(body, R"({"error":"queue \"full\""})");
}

TEST(Protocol, KnownWorkflowsCoverThePaperSet) {
  const auto& names = exp::catalog::kWorkflowNames;
  EXPECT_EQ(names.size(), 8u);
  for (const char* expected : {"montage", "cstem", "mapreduce", "sequential"})
    EXPECT_NE(std::find(names.begin(), names.end(), expected), names.end());
}

}  // namespace
}  // namespace cloudwf::svc
