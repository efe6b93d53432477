// The /v1/shard endpoint and the wire representations behind it: JSON and
// binary shard round trips against a live server, shard admission limits,
// and the auth-token gate (constant-time check, /health exempt,
// non-loopback binds refuse to start without a token).
#include "svc/binproto.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <variant>
#include <vector>

#include "cloud/platform.hpp"
#include "exp/sweep_grid.hpp"
#include "svc/handlers.hpp"
#include "svc/http.hpp"
#include "svc/protocol.hpp"
#include "svc/server.hpp"
#include "util/json.hpp"
#include "workload/scenario.hpp"

namespace cloudwf::svc {
namespace {

exp::ShardSpec sample_shard() {
  exp::SweepGridSpec grid;
  grid.workflows = {"montage", "cstem"};
  grid.scenarios = {workload::ScenarioKind::pareto,
                    workload::ScenarioKind::worst_case};
  grid.strategies = {"AllPar1LnS", "StartParExceed-m"};
  grid.seed_begin = 0;
  grid.seed_end = 1;
  exp::ShardSpec shard;
  shard.shard_id = 2;
  shard.cell_begin = 4;
  shard.cell_end = 12;
  shard.grid = grid;
  return shard;
}

exp::SweepRow extreme_row() {
  exp::SweepRow row;
  row.seed = std::numeric_limits<std::uint64_t>::max();
  row.strategy = "AllParExceed-m";
  row.makespan_us = std::numeric_limits<std::int64_t>::max();
  row.vm_cost_micros = std::numeric_limits<std::int64_t>::min();
  row.egress_cost_micros = -1;
  row.total_cost_micros = 7;
  row.idle_us = 88000000;
  row.busy_us = 1234000;
  row.vms_used = std::numeric_limits<std::uint32_t>::max();
  row.total_btus = 9;
  row.utilization_ppm = 137000;
  row.gain_pct_ppm = -4500000;
  row.loss_pct_ppm = 12250000;
  return row;
}

// --- binary shard frames -------------------------------------------------

TEST(ShardWire, ShardRequestFrameRoundTrips) {
  const exp::ShardSpec shard = sample_shard();
  const std::string wire = encode_frame(shard);
  const BinFrame decoded = decode_frame(wire);
  EXPECT_EQ(encode_frame(decoded), wire);  // decode -> encode fixed point
  const auto* back = std::get_if<exp::ShardSpec>(&decoded);
  ASSERT_NE(back, nullptr);
  EXPECT_EQ(*back, shard);
}

TEST(ShardWire, ShardResponseFrameRoundTrips) {
  BinShardResponse response;
  response.shard_id = 11;
  response.rows = {extreme_row()};
  const std::string wire = encode_frame(response);
  const BinFrame decoded = decode_frame(wire);
  EXPECT_EQ(encode_frame(decoded), wire);
  const auto* back = std::get_if<BinShardResponse>(&decoded);
  ASSERT_NE(back, nullptr);
  EXPECT_EQ(*back, response);
}

TEST(ShardWire, TruncatedShardFramesFailWithInBoundsOffsets) {
  for (const std::string& wire :
       {encode_frame(sample_shard()),
        encode_frame(BinShardResponse{3, {extreme_row()}})}) {
    for (std::size_t cut = 0; cut < wire.size(); ++cut) {
      try {
        (void)decode_frame(wire.substr(0, cut));
        FAIL() << "truncation at " << cut << " of " << wire.size()
               << " decoded";
      } catch (const BinProtoError& e) {
        EXPECT_LE(e.offset, cut);
      }
    }
  }
}

TEST(ShardWire, JsonShardBodyRoundTrips) {
  const exp::ShardSpec shard = sample_shard();
  const exp::ShardSpec back =
      decode_shard(util::Json::parse(shard_request_body(shard)));
  EXPECT_EQ(back, shard);
  EXPECT_NO_THROW(validate_shard(back));
}

TEST(ShardWire, JsonShardResultKeepsVmsUsedInU32) {
  const auto body_with = [](double vms_used) {
    util::Json row = sweep_row_json(exp::SweepRow{});
    row["vms_used"] = vms_used;
    util::Json rows = util::Json::array();
    rows.push_back(std::move(row));
    util::Json body = util::Json::object();
    body["shard_id"] = static_cast<std::int64_t>(0);
    body["rows"] = std::move(rows);
    return body;
  };
  EXPECT_EQ(decode_shard_result(body_with(4294967295.0)).rows.at(0).vms_used,
            std::numeric_limits<std::uint32_t>::max());
  // A binary frame cannot carry these, so JSON must not wrap them into u32.
  for (const double vms_used : {-1.0, 5000000000.0}) {
    try {
      (void)decode_shard_result(body_with(vms_used));
      FAIL() << "vms_used " << vms_used << " decoded";
    } catch (const BadRequest& e) {
      EXPECT_NE(std::string(e.what()).find("row field 'vms_used'"),
                std::string::npos)
          << e.what();
    }
  }
}

TEST(ShardWire, ValidateShardEnforcesGridAndCellCaps) {
  exp::ShardSpec shard = sample_shard();
  shard.cell_end = shard.grid.cell_count() + 1;
  EXPECT_THROW(validate_shard(shard), BadRequest);

  // One shard may not smuggle in an unbounded batch: seeds alone can push
  // a single slice past kMaxCellsPerShard.
  shard = sample_shard();
  shard.grid.workflows = {"montage"};
  shard.grid.scenarios = {workload::ScenarioKind::pareto};
  shard.grid.strategies = {"AllPar1LnS"};
  shard.grid.seed_begin = 0;
  shard.grid.seed_end = kMaxCellsPerShard + 10;
  shard.cell_begin = 0;
  shard.cell_end = shard.grid.cell_count();
  EXPECT_THROW(validate_shard(shard), BadRequest);
}

// --- the live endpoint ---------------------------------------------------

class ShardServiceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ServerConfig config;
    config.port = 0;
    config.workers = 2;
    server_ = std::make_unique<Server>(config);
    server_->start();
    ASSERT_TRUE(client_.connect("127.0.0.1", server_->port()));
  }
  void TearDown() override {
    client_.disconnect();
    if (server_) server_->stop();
  }

  std::unique_ptr<Server> server_;
  HttpClient client_;
};

TEST_F(ShardServiceTest, JsonShardAnswersRunShardRows) {
  const exp::ShardSpec shard = sample_shard();
  const auto response =
      client_.request("POST", "/v1/shard", shard_request_body(shard));
  ASSERT_TRUE(response.has_value());
  ASSERT_EQ(response->status, 200) << response->body;

  const ShardResult result =
      decode_shard_result(util::Json::parse(response->body));
  EXPECT_EQ(result.shard_id, shard.shard_id);
  // The served rows ARE the serial shard rows — same code path, bit for bit.
  EXPECT_EQ(result.rows, exp::run_shard(shard, cloud::Platform::ec2()));
}

TEST_F(ShardServiceTest, BinaryShardAnswersIdenticalRows) {
  const exp::ShardSpec shard = sample_shard();
  const auto response =
      client_.request("POST", "/v1/shard", encode_frame(shard), {},
                      kBinaryContentType);
  ASSERT_TRUE(response.has_value());
  ASSERT_EQ(response->status, 200);

  const BinFrame frame = decode_frame(response->body);
  const auto* decoded = std::get_if<BinShardResponse>(&frame);
  ASSERT_NE(decoded, nullptr);
  EXPECT_EQ(decoded->shard_id, shard.shard_id);

  EXPECT_EQ(decoded->rows, exp::run_shard(shard, cloud::Platform::ec2()));
}

TEST_F(ShardServiceTest, RejectsBadShards) {
  auto response = client_.request("GET", "/v1/shard");
  ASSERT_TRUE(response.has_value());
  EXPECT_EQ(response->status, 405);

  exp::ShardSpec shard = sample_shard();
  shard.cell_end = shard.grid.cell_count() + 5;  // out of the grid
  response = client_.request("POST", "/v1/shard", shard_request_body(shard));
  ASSERT_TRUE(response.has_value());
  EXPECT_EQ(response->status, 400);

  shard = sample_shard();
  shard.grid.strategies = {"NoSuchStrategy"};
  response = client_.request("POST", "/v1/shard", shard_request_body(shard));
  ASSERT_TRUE(response.has_value());
  EXPECT_EQ(response->status, 400);

  response = client_.request("POST", "/v1/shard", "{not json");
  ASSERT_TRUE(response.has_value());
  EXPECT_EQ(response->status, 400);
}

// --- the auth gate -------------------------------------------------------

class AuthServiceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ServerConfig config;
    config.port = 0;
    config.workers = 2;
    config.auth_token = "sweep-fleet-secret";
    server_ = std::make_unique<Server>(config);
    server_->start();
    ASSERT_TRUE(client_.connect("127.0.0.1", server_->port()));
  }
  void TearDown() override {
    client_.disconnect();
    if (server_) server_->stop();
  }

  std::unique_ptr<Server> server_;
  HttpClient client_;
};

TEST_F(AuthServiceTest, RequestsWithoutTokenAre401) {
  const exp::ShardSpec shard = sample_shard();
  auto response =
      client_.request("POST", "/v1/shard", shard_request_body(shard));
  ASSERT_TRUE(response.has_value());
  EXPECT_EQ(response->status, 401);

  // Wrong token, same-length token, and prefix token all fail alike.
  for (const std::string bad :
       {"wrong", "sweep-fleet-secreT", "sweep-fleet-secre",
        "sweep-fleet-secret2"}) {
    response = client_.request("POST", "/v1/shard", shard_request_body(shard),
                               {{"X-Auth-Token", bad}});
    ASSERT_TRUE(response.has_value());
    EXPECT_EQ(response->status, 401) << "token '" << bad << "' accepted";
  }
  EXPECT_GE(server_->counters().unauthorized_401.load(), 5u);
}

TEST_F(AuthServiceTest, CorrectTokenIsAccepted) {
  const exp::ShardSpec shard = sample_shard();
  const auto response =
      client_.request("POST", "/v1/shard", shard_request_body(shard),
                      {{"X-Auth-Token", "sweep-fleet-secret"}});
  ASSERT_TRUE(response.has_value());
  ASSERT_EQ(response->status, 200);
  EXPECT_EQ(decode_shard_result(util::Json::parse(response->body)).shard_id,
            shard.shard_id);
}

TEST_F(AuthServiceTest, HealthStaysOpenForProbes) {
  const auto response = client_.request("GET", "/health");
  ASSERT_TRUE(response.has_value());
  EXPECT_EQ(response->status, 200);
}

TEST(AuthPolicy, NonLoopbackBindRequiresAToken) {
  ServerConfig config;
  config.port = 0;
  config.bind_address = "0.0.0.0";
  Server refused(config);
  EXPECT_THROW(refused.start(), std::runtime_error);

  config.auth_token = "secret";
  Server allowed(config);
  allowed.start();
  HttpClient client;
  ASSERT_TRUE(client.connect("127.0.0.1", allowed.port()));
  const auto response = client.request("GET", "/health");
  ASSERT_TRUE(response.has_value());
  EXPECT_EQ(response->status, 200);
  allowed.stop();
}

}  // namespace
}  // namespace cloudwf::svc
