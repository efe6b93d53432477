// Helpers the workloads share: the per-layer metric table, golden digests,
// seed derivation and the server configuration.
#include <fstream>
#include <iterator>

#include "util/rng.hpp"
#include "workloads.hpp"

#ifndef CLOUDWF_BENCH_GOLDEN_DIR
#error "CLOUDWF_BENCH_GOLDEN_DIR must name the golden digest directory"
#endif

namespace cloudwf_bench {

namespace {

/// Spans reported as busy total (`_ms`) and call count (`_calls`).
constexpr const char* kCountedSpans[] = {
    "dag.build",           "workload.materialize",  "dag.structure",
    "scheduling.reference", "scheduling.heft",      "scheduling.level",
    "scheduling.cpa_eager", "scheduling.gain",      "scheduling.allpar1lns",
    "sim.validate",         "sim.metrics",          "exp.run_shard"};

/// Service spans, reported as mean microseconds per call (`_us`).
constexpr const char* kPerCallSpans[] = {
    "svc.http_parse", "svc.decode_json", "svc.decode_bin",
    "svc.encode_json", "svc.encode_bin", "svc.serialize"};

/// Spans reported as busy total only.
constexpr const char* kTotalSpans[] = {"exp.partition", "exp.merge"};

struct LayerMetric {
  std::string name;
  const char* unit;
};

/// Every per-layer metric, in report order. BENCHMARK.json's per_layer
/// list names exactly these.
std::vector<LayerMetric> layer_metrics() {
  std::vector<LayerMetric> out;
  for (const char* span : kCountedSpans) {
    out.push_back({std::string(span) + "_ms", "ms"});
    out.push_back({std::string(span) + "_calls", "count"});
  }
  for (const char* span : kPerCallSpans)
    out.push_back({std::string(span) + "_us", "us"});
  for (const char* span : kTotalSpans)
    out.push_back({std::string(span) + "_ms", "ms"});
  const LayerMetric rest[] = {
      {"svc.cache_hit_share", "fraction"}, {"svc.batches", "count"},
      {"svc.coalesced_share", "fraction"}, {"svc.queue_depth_peak", "count"},
      {"latency_p99_ms", "ms"},            {"latency_samples", "count"},
      {"dist.shard_rtt_ms_p50", "ms"},     {"dist.transport_ms", "ms"},
      {"dist.reissues", "count"},          {"dist.duplicates", "count"},
      {"bench.gen_late_ms_p99", "ms"},     {"bench.gen_cpu_share", "fraction"},
      {"bench.host_factor", "ratio"},      {"trace.overhead", "ratio"}};
  out.insert(out.end(), std::begin(rest), std::end(rest));
  return out;
}

}  // namespace

void report_trace(Report& report, const RunConfig& config, const Spans& traced,
                  LayerValues layers) {
  const std::map<std::string, Spans::Total> totals = traced.totals();
  const auto total = [&](const char* span) {
    const auto it = totals.find(span);
    return it == totals.end() ? Spans::Total{} : it->second;
  };
  for (const char* span : kCountedSpans) {
    const Spans::Total t = total(span);
    layers[std::string(span) + "_ms"] += t.ms;
    layers[std::string(span) + "_calls"] += static_cast<double>(t.calls);
  }
  for (const char* span : kPerCallSpans) {
    const Spans::Total t = total(span);
    if (t.calls > 0)
      layers[std::string(span) + "_us"] =
          t.ms * 1000.0 / static_cast<double>(t.calls);
  }
  for (const char* span : kTotalSpans)
    layers[std::string(span) + "_ms"] += total(span).ms;

  for (const LayerMetric& m : layer_metrics()) {
    const auto it = layers.find(m.name);
    report.metrics.push_back(
        {m.name, it == layers.end() ? 0.0 : it->second, m.unit, false});
  }
  if (!config.trace_out.empty() && !traced.write_chrome_trace(config.trace_out))
    report.fail("cannot write " + config.trace_out);
}

void check_golden(Report& report, const RunConfig& config,
                  const std::string& workload, const std::string& digest) {
  if (config.seed != kDefaultSeed) return;
  const std::string path =
      std::string(CLOUDWF_BENCH_GOLDEN_DIR) + "/" + workload + ".digest";
  if (config.write_golden) {
    std::ofstream out(path);
    out << digest << '\n';
    if (!out) report.fail("cannot write golden digest " + path);
    return;
  }
  std::ifstream in(path);
  std::string expected;
  if (!(in >> expected)) {
    report.fail("missing golden digest " + path);
  } else if (expected != digest) {
    report.fail("golden mismatch for " + workload + ": expected " + expected +
                ", got " + digest);
  }
}

std::string table_digest(const cloudwf::exp::SweepGridSpec& grid,
                         const std::vector<cloudwf::exp::SweepRow>& rows) {
  Digest d;
  d.add(cloudwf::exp::sweep_table(grid, rows));
  return d.hex();
}

cloudwf::svc::ServerConfig server_config() {
  cloudwf::svc::ServerConfig config;
  config.port = 0;
  config.workers = 2;
  config.event_loop_threads = 1;
  config.max_queue = 256;
  return config;
}

std::uint64_t seed_base(std::uint64_t seed) {
  std::uint64_t state = seed;
  // 40 bits leave room for every per-run offset below the protocol's 9e15
  // seed cap.
  return cloudwf::util::splitmix64(state) >> 24;
}

}  // namespace cloudwf_bench
