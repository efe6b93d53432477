// serve-cold and serve-hot: an in-process svc::Server (1 event loop, 2
// compute workers, max_queue 256, the default response cache) driven by one
// LoadGen thread over 4 keep-alive connections — 4 threads and 4
// connections in all.
//
// Traffic is 3:1 evaluate:rank over the paper workflows and five scenarios,
// cycling the 19 strategies, alternating JSON and binary every four
// requests. Phase A is an open loop at the workload's fixed rate and gives
// the latency metrics (timed from each request's due time); phase B is a
// closed loop on the same connections and gives the throughput.
//
// serve-cold gives every request its own seed, so the response cache never
// hits and each request pays the whole uncached path: workflow build, a
// fresh ExperimentRunner, the reference run, validation, metrics and both
// wire codecs. serve-hot cycles 50 requests that warm-up put in the cache:
// compute is bypassed, leaving the event loop, parse, decode, cache lookup
// and write — the control workload for compute changes.
#include <algorithm>
#include <memory>
#include <stdexcept>
#include <unordered_map>
#include <utility>

#include "cells.hpp"
#include "exp/parallel.hpp"
#include "loadgen.hpp"
#include "svc/binproto.hpp"
#include "svc/handlers.hpp"
#include "svc/http.hpp"
#include "svc/server.hpp"
#include "workloads.hpp"

namespace cloudwf_bench {

namespace {

namespace svc = cloudwf::svc;
using cloudwf::workload::ScenarioKind;

struct ServeShape {
  const char* name;
  std::uint64_t distinct;  ///< 0: every request unique; else cycle this many
  double rate;             ///< phase A arrivals per second
  std::size_t depth;       ///< phase B requests outstanding per connection
};

constexpr std::size_t kConnections = 4;
constexpr std::size_t kSlices = 20;
constexpr std::uint64_t kWarmupOffset = std::uint64_t{1} << 32;
constexpr std::size_t kGoldenRequests = 64;
constexpr double kMaxLateMs = 1.0;
constexpr double kMaxGenCpuShare = 0.8;

constexpr const char* kWorkflows[] = {"montage", "cstem", "mapreduce",
                                      "sequential"};

constexpr ScenarioKind kScenarios[] = {
    ScenarioKind::pareto, ScenarioKind::best_case, ScenarioKind::worst_case,
    ScenarioKind::cold_start, ScenarioKind::variable_price};

struct Request {
  bool rank = false;
  bool binary = false;
  svc::EvaluateRequest evaluate;
  svc::RankRequest rank_request;
};

/// The request with content key `key` (the request's index for unique
/// traffic, the index mod 50 for the hot set), asking for seed `seed`.
Request request_at(std::uint64_t key, std::uint64_t seed) {
  static const std::vector<std::string> labels =
      cloudwf::scheduling::paper_strategy_labels();
  Request r;
  r.rank = key % 4 == 3;
  r.binary = (key / 4) % 2 == 1;
  const std::string workflow = kWorkflows[(key / 8) % 4];
  const ScenarioKind scenario = kScenarios[(key / 32) % 5];
  if (r.rank) {
    r.rank_request.workflow = workflow;
    r.rank_request.scenario = scenario;
    r.rank_request.seed = seed;
  } else {
    r.evaluate.workflow = workflow;
    r.evaluate.strategy = labels[key % labels.size()];
    r.evaluate.scenario = scenario;
    r.evaluate.seed_begin = r.evaluate.seed_end = seed;
  }
  return r;
}

std::string request_body(const Request& r) {
  if (r.binary) {
    return r.rank ? svc::encode_frame(r.rank_request)
                  : svc::encode_frame(r.evaluate);
  }
  cloudwf::util::Json body = cloudwf::util::Json::object();
  if (r.rank) {
    body["workflow"] = r.rank_request.workflow;
    body["scenario"] =
        std::string(cloudwf::workload::name_of(r.rank_request.scenario));
    body["seed"] = static_cast<std::int64_t>(r.rank_request.seed);
  } else {
    body["workflow"] = r.evaluate.workflow;
    body["strategy"] = r.evaluate.strategy;
    body["scenario"] =
        std::string(cloudwf::workload::name_of(r.evaluate.scenario));
    body["seed"] = static_cast<std::int64_t>(r.evaluate.seed_begin);
  }
  return body.dump();
}

std::string request_wire(const Request& r) {
  const std::string body = request_body(r);
  std::string wire = r.rank ? "POST /v1/rank" : "POST /v1/evaluate";
  wire += " HTTP/1.1\r\nHost: 127.0.0.1\r\nContent-Type: ";
  wire += r.binary ? svc::kBinaryContentType : "application/json";
  wire += "\r\nContent-Length: ";
  wire += std::to_string(body.size());
  wire += "\r\n\r\n";
  wire += body;
  return wire;
}

/// The body the handlers answer directly, outside the server.
std::string direct_body(const Request& r,
                        const cloudwf::cloud::Platform& platform) {
  if (r.rank)
    return r.binary ? svc::rank_body_bin(r.rank_request, platform)
                    : svc::rank_body(r.rank_request, platform);
  return r.binary ? svc::evaluate_body_bin(r.evaluate, platform)
                  : svc::evaluate_body(r.evaluate, platform);
}

class Traffic {
 public:
  Traffic(const ServeShape& shape, std::uint64_t base)
      : shape_(shape), base_(base) {}

  [[nodiscard]] std::uint64_t key(std::uint64_t index) const {
    return shape_.distinct == 0 ? index : index % shape_.distinct;
  }
  [[nodiscard]] Request at(std::uint64_t index) const {
    return request_at(key(index), base_ + key(index));
  }
  [[nodiscard]] Request warmup(std::uint64_t index) const {
    return shape_.distinct == 0
               ? request_at(index, base_ + kWarmupOffset + index)
               : at(index);
  }

 private:
  ServeShape shape_;
  std::uint64_t base_;
};

/// Sends `wires` closed-loop over the generator's connections and returns
/// the statuses (warm-up only).
std::vector<int> closed_batch(LoadGen& gen,
                              const std::vector<std::string>& wires) {
  std::vector<int> statuses(wires.size(), 0);
  std::size_t next = 0;
  for (std::size_t c = 0; c < gen.connections() && next < wires.size();
       ++c, ++next)
    gen.send(next, wires[next], c);
  while (gen.outstanding() > 0) {
    gen.pump(Clock::now() + std::chrono::seconds(1),
             [&](std::uint64_t id, int status, std::string_view,
                 Clock::time_point) {
               statuses[id] = status;
               if (next < wires.size()) {
                 gen.send(next, wires[next], gen.last_connection());
                 ++next;
               }
             });
  }
  return statuses;
}

/// Decodes a parsed request as the server does: binary frame or JSON body,
/// chosen by Content-Type.
Request decode_request(const svc::HttpRequest& http, Spans& spans,
                       std::uint64_t op) {
  Request decoded;
  decoded.rank = http.target == "/v1/rank";
  decoded.binary = http.header("content-type") == svc::kBinaryContentType;
  if (decoded.binary) {
    const auto s = spans.scope("svc.decode_bin", op);
    svc::BinFrame frame = svc::decode_frame(http.body);
    if (decoded.rank)
      decoded.rank_request = std::get<svc::RankRequest>(std::move(frame));
    else
      decoded.evaluate = std::get<svc::EvaluateRequest>(std::move(frame));
  } else {
    const auto s = spans.scope("svc.decode_json", op);
    const cloudwf::util::Json body = cloudwf::util::Json::parse(http.body);
    if (decoded.rank)
      decoded.rank_request = svc::decode_rank(body);
    else
      decoded.evaluate = svc::decode_evaluate(body);
  }
  return decoded;
}

/// The response body for a decoded request, computed through the cell
/// decomposition and encoded as evaluate_body/rank_body (or _bin) do.
std::string answer(const Request& r, const cloudwf::cloud::Platform& platform,
                   Spans& spans, std::uint64_t op) {
  namespace util = cloudwf::util;
  const std::string& name =
      r.rank ? r.rank_request.workflow : r.evaluate.workflow;
  const ScenarioKind scenario =
      r.rank ? r.rank_request.scenario : r.evaluate.scenario;
  const std::uint64_t seed =
      r.rank ? r.rank_request.seed : r.evaluate.seed_begin;
  const cloudwf::dag::Workflow structure = [&] {
    const auto s = spans.scope("dag.build", op);
    return svc::workflow_by_name(name);
  }();
  const auto results = evaluate_group(
      structure, scenario, seed,
      r.rank ? cloudwf::scheduling::paper_strategies()
             : strategies_for({r.evaluate.strategy}),
      platform, spans, op);

  if (r.binary) {
    const auto s = spans.scope("svc.encode_bin", op);
    std::vector<svc::BinResultRow> rows;
    for (const auto& result : results)
      rows.push_back(svc::bin_row(result, seed));
    if (r.rank)
      return svc::encode_frame(
          svc::BinRankResponse{name, scenario, seed, std::move(rows)});
    return svc::encode_frame(svc::BinEvaluateResponse{
        name, scenario, r.evaluate.strategy, std::move(rows)});
  }
  const auto s = spans.scope("svc.encode_json", op);
  util::Json rows = util::Json::array();
  for (const auto& result : results)
    rows.push_back(svc::run_result_json(result, seed));
  util::Json body = util::Json::object();
  body["endpoint"] = r.rank ? "rank" : "evaluate";
  body["workflow"] = name;
  if (r.rank)
    body["seed"] = static_cast<std::int64_t>(seed);
  else
    body["strategy"] = r.evaluate.strategy;
  body["scenario"] = std::string(cloudwf::workload::name_of(scenario));
  body["results"] = std::move(rows);
  return body.dump();
}

/// Replays requests [0, count) single-threaded through the service path's
/// public calls: parse, decode, the cell decomposition, encode, serialize.
/// A response computed once is reused for a repeated request, as the
/// server's cache does. Returns the body hash of each replayed request.
std::vector<std::uint64_t> replay(const Traffic& traffic, std::uint64_t count,
                                  const cloudwf::cloud::Platform& platform,
                                  Spans& spans) {
  std::unordered_map<std::uint64_t, std::string> computed;
  std::vector<std::uint64_t> hashes;
  for (std::uint64_t i = 0; i < count; ++i) {
    const std::string wire = request_wire(traffic.at(i));
    const std::string* body = nullptr;
    {
      const auto request_span = spans.scope("svc.request", i);
      const svc::ParseResult parsed = [&] {
        const auto s = spans.scope("svc.http_parse", i);
        return svc::parse_http_request(wire);
      }();
      if (parsed.status != svc::ParseStatus::ok)
        throw std::runtime_error("replay: request did not parse");
      const Request decoded = decode_request(parsed.request, spans, i);
      auto it = computed.find(traffic.key(i));
      if (it == computed.end())
        it = computed
                 .emplace(traffic.key(i), answer(decoded, platform, spans, i))
                 .first;
      body = &it->second;
      svc::HttpResponse response;
      response.body = *body;
      if (decoded.binary) response.content_type = svc::kBinaryContentType;
      const auto s = spans.scope("svc.serialize", i);
      (void)svc::serialize_response(response);
    }
    hashes.push_back(digest_of(*body));
  }
  return hashes;
}

Report run_serve(const ServeShape& shape, const RunConfig& config) {
  Report report;
  const cloudwf::cloud::Platform platform = cloudwf::cloud::Platform::ec2();
  const Traffic traffic(shape, seed_base(config.seed));
  const bool hot = shape.distinct != 0;

  // The hot set's answers are known before the window, so its responses are
  // compared as they arrive; cold responses keep a hash, checked afterwards.
  cloudwf::exp::ParallelConfig parallel;
  parallel.threads = kThreadBudget;
  const auto direct = [&](std::size_t i) {
    return direct_body(traffic.at(i), platform);
  };
  const std::vector<std::string> hot_expected =
      hot ? cloudwf::exp::parallel_map(shape.distinct, parallel, direct)
          : std::vector<std::string>{};

  // Set-up: server start, connections, warm-up traffic (the whole hot set
  // for serve-hot, which fills the cache). Repeated; the last one stays up.
  ScaledTimes setups(kThreadBudget);
  std::unique_ptr<svc::Server> server;
  std::unique_ptr<LoadGen> gen;
  std::vector<std::string> warm_wires;
  for (std::uint64_t i = 0; i < (hot ? shape.distinct : 64); ++i)
    warm_wires.push_back(request_wire(traffic.warmup(i)));
  for (int rep = 0; rep < (config.smoke ? 1 : 3); ++rep) {
    gen.reset();
    server.reset();
    const Clock::time_point start = Clock::now();
    server = std::make_unique<svc::Server>(server_config(), platform);
    server->start();
    gen = std::make_unique<LoadGen>(server->port(), kConnections);
    for (const int status : closed_batch(*gen, warm_wires))
      if (status != 200)
        report.fail("warm-up request answered " + std::to_string(status));
    setups.add(ms_between(start, Clock::now()));
  }

  const svc::ServiceCounters& counters = server->counters();
  const std::uint64_t hits0 = counters.cache_hits.load();
  const std::uint64_t misses0 = counters.cache_misses.load();
  const std::uint64_t batches0 = counters.batches_run.load();
  const std::uint64_t coalesced0 = counters.requests_coalesced.load();

  std::uint64_t answered = 0;
  std::uint64_t bad_status = 0;
  std::uint64_t bad_body = 0;
  std::vector<std::uint64_t> cold_hashes;
  std::vector<std::string> golden_bodies(kGoldenRequests);
  const auto check = [&](std::uint64_t id, int status, std::string_view body) {
    ++answered;
    if (id < golden_bodies.size()) golden_bodies[id] = std::string(body);
    if (status != 200) {
      ++bad_status;
      return;
    }
    if (!hot)
      cold_hashes[id] = digest_of(body);
    else if (body != hot_expected[traffic.key(id)])
      ++bad_body;
  };

  // Both phases run in slices with a host probe between them, while the
  // server is idle; each slice's timings are scaled by its probes.
  const std::size_t slices = config.smoke ? 1 : kSlices;
  ScaledTimes slice_ms(kThreadBudget);

  // Phase A: open loop at the fixed rate, a fixed number of requests. Each
  // slice restarts the arrival schedule after the probe.
  const double phase_seconds =
      config.smoke ? config.seconds / 200 : config.seconds / 2;
  const auto open_count = static_cast<std::uint64_t>(std::max(
      config.smoke ? 100.0 : 1000.0, shape.rate * phase_seconds));
  std::vector<std::string> wires;  // by traffic key
  for (std::uint64_t k = 0; k < (hot ? shape.distinct : open_count); ++k)
    wires.push_back(request_wire(traffic.at(k)));
  if (!hot) cold_hashes.resize(open_count);

  std::vector<double> latency_ms;
  std::vector<double> late_p99_ms;  // per slice
  latency_ms.reserve(open_count);
  double gen_cpu_s = 0;
  double open_wall_s = 0;
  std::uint64_t sent = 0;
  for (std::size_t s = 0; s < slices; ++s) {
    const std::uint64_t first = sent;
    const std::uint64_t end = open_count * (s + 1) / slices;
    std::vector<double> raw_ms(end - first, 0);
    std::vector<double> late_ms;
    late_ms.reserve(end - first);
    const double cpu0 = thread_cpu_seconds();
    const Clock::time_point slice_start = Clock::now();
    const auto due = [&](std::uint64_t i) {
      return slice_start +
             to_duration(static_cast<double>(i - first) / shape.rate);
    };
    while (answered < end) {
      const Clock::time_point now = Clock::now();
      while (sent < end && due(sent) <= now) {
        late_ms.push_back(ms_between(due(sent), now));
        gen->send(sent, wires[traffic.key(sent)]);
        ++sent;
      }
      const Clock::time_point wake =
          sent < end ? due(sent) : now + std::chrono::milliseconds(100);
      gen->pump(wake, [&](std::uint64_t id, int status, std::string_view body,
                          Clock::time_point done) {
        raw_ms[id - first] = ms_between(due(id), done);
        check(id, status, body);
      });
    }
    const double wall_ms = ms_between(slice_start, Clock::now());
    gen_cpu_s += thread_cpu_seconds() - cpu0;
    open_wall_s += wall_ms / 1000;
    const double factor = slice_ms.add(wall_ms);
    for (const double ms : raw_ms) latency_ms.push_back(ms * factor);
    late_p99_ms.push_back(percentile(late_ms, 99));
  }
  const double gen_cpu_share = gen_cpu_s / open_wall_s;

  // Phase B: closed loop with `depth` requests outstanding per connection,
  // stopping at each slice's end. Each connection's next request is encoded
  // while its earlier ones are out.
  std::uint64_t next = open_count;
  std::vector<std::pair<std::uint64_t, std::string>> prepared(kConnections);
  const auto prepare = [&](std::size_t connection) {
    prepared[connection].first = next;
    prepared[connection].second =
        hot ? wires[traffic.key(next)] : request_wire(traffic.at(next));
    if (!hot) cold_hashes.push_back(0);
    ++next;
  };
  const auto send_prepared = [&](std::size_t connection) {
    gen->send(prepared[connection].first, prepared[connection].second,
              connection);
    prepare(connection);
  };
  for (std::size_t c = 0; c < kConnections; ++c) prepare(c);
  std::vector<double> closed_answers;
  std::vector<double> closed_ms;
  for (std::size_t s = 0; s < slices; ++s) {
    const std::uint64_t first = answered;
    const Clock::time_point slice_start = Clock::now();
    const Clock::time_point slice_end =
        slice_start +
        to_duration(phase_seconds / static_cast<double>(slices));
    Clock::time_point last_done = slice_start;
    for (std::size_t d = 0; d < shape.depth; ++d)
      for (std::size_t c = 0; c < kConnections; ++c) send_prepared(c);
    while (gen->outstanding() > 0) {
      gen->pump(Clock::now() + std::chrono::milliseconds(100),
                [&](std::uint64_t id, int status, std::string_view body,
                    Clock::time_point done) {
                  check(id, status, body);
                  last_done = done;
                  if (done < slice_end) send_prepared(gen->last_connection());
                });
    }
    const double wall_ms = ms_between(slice_start, last_done);
    closed_answers.push_back(static_cast<double>(answered - first));
    closed_ms.push_back(wall_ms * slice_ms.add(wall_ms));
  }

  const std::uint64_t hits = counters.cache_hits.load() - hits0;
  const std::uint64_t misses = counters.cache_misses.load() - misses0;
  LayerValues layers;
  layers["svc.cache_hit_share"] =
      hits + misses == 0 ? 0
                         : static_cast<double>(hits) /
                               static_cast<double>(hits + misses);
  layers["svc.batches"] =
      static_cast<double>(counters.batches_run.load() - batches0);
  layers["svc.coalesced_share"] =
      misses == 0 ? 0
                  : static_cast<double>(counters.requests_coalesced.load() -
                                        coalesced0) /
                        static_cast<double>(misses);
  layers["svc.queue_depth_peak"] =
      static_cast<double>(counters.queue_depth_peak.load());
  gen.reset();
  server.reset();

  report.attempted = answered;
  // A host stall can make one slice late; a generator that cannot keep up
  // is late in most of them.
  const double late_p99 = median(late_p99_ms);
  layers["bench.gen_late_ms_p99"] = late_p99;
  layers["bench.gen_cpu_share"] = gen_cpu_share;
  layers["bench.host_factor"] = slice_ms.host_factor();
  layers["latency_p99_ms"] = percentile(latency_ms, 99);
  layers["latency_samples"] = static_cast<double>(latency_ms.size());
  if (late_p99 > kMaxLateMs)
    report.fail("generator ran late: p99 " + std::to_string(late_p99) + " ms");
  if (gen_cpu_share > kMaxGenCpuShare)
    report.fail("generator CPU share " + std::to_string(gen_cpu_share));
  if (!config.smoke && latency_ms.size() < 1000)
    report.fail("fewer than 1000 latency samples");

  report.end_to_end("ops_per_s", median_rate(closed_answers, closed_ms),
                    "ops/s");
  report.end_to_end("latency_p50_ms", median(latency_ms), "ms");
  report.end_to_end("setup_s", median(setups.scaled_ms()) / 1000, "s");

  // After the window: every cold 2xx body must equal the handler's bytes.
  if (!hot) {
    const std::vector<std::uint64_t> expected = cloudwf::exp::parallel_map(
        cold_hashes.size(), parallel,
        [&](std::size_t i) { return digest_of(direct(i)); });
    for (std::uint64_t i = 0; i < cold_hashes.size(); ++i)
      if (cold_hashes[i] != 0 && cold_hashes[i] != expected[i]) ++bad_body;
  }
  if (bad_status > 0)
    report.fail(std::to_string(bad_status) + " non-2xx responses", bad_status);
  if (bad_body > 0)
    report.fail(std::to_string(bad_body) + " bodies differ from the handlers",
                bad_body);

  Digest golden;
  for (const std::string& body : golden_bodies) golden.add(body);
  check_golden(report, config, shape.name, golden.hex());

  if (!config.trace) return report;

  // Traced replay of the first requests, with and without spans.
  const std::uint64_t replayed = config.smoke ? 40 : 400;
  Spans traced(true);
  Spans off(false);
  Clock::time_point start = Clock::now();
  const auto plain = replay(traffic, replayed, platform, off);
  const double untraced_s = seconds_since(start);
  start = Clock::now();
  const auto spanned = replay(traffic, replayed, platform, traced);
  const double traced_s = seconds_since(start);
  for (std::uint64_t i = 0; i < replayed; ++i) {
    const std::uint64_t served =
        hot ? digest_of(hot_expected[traffic.key(i)]) : cold_hashes[i];
    if (plain[i] != served || spanned[i] != served)
      report.fail("replayed body of request " + std::to_string(i) +
                  " differs from the served body");
  }
  layers["trace.overhead"] = traced_s / untraced_s;
  report_trace(report, config, traced, std::move(layers));
  return report;
}

}  // namespace

// Phase A rates are about half of each workload's closed-loop capacity at
// the commit that introduced the benchmark (README.md, "Rates").
Report run_serve_cold(const RunConfig& config) {
  return run_serve({"serve-cold", 0, 3000, 8}, config);
}

Report run_serve_hot(const RunConfig& config) {
  return run_serve({"serve-hot", 50, 25000, 32}, config);
}

}  // namespace cloudwf_bench
