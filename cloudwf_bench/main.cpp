// cloudwf_bench: one command that measures the sweep, service and fabric
// paths end to end, and with --trace layer by layer.
//
//   cloudwf_bench [--workload NAME] [--seed N] [--seconds S] [--trace [0|1]]
//                 [--trace-out FILE] [--out FILE] [--smoke] [--write-golden]
//
// Each workload runs in its own child process, so each has its own peak RSS
// and no cache carries over. Every metric is printed by name with its unit.
// The exit status is non-zero when any correctness check fails. With
// --workload, the last line of standard output is one JSON object:
// {"correct", "attempted", "failed", "metrics"}, holding the end-to-end
// metrics, or the per-layer metrics when tracing.
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "util/json.hpp"
#include "workloads.hpp"

namespace {

using namespace cloudwf_bench;

struct Workload {
  const char* name;
  const char* why;
  Report (*run)(const RunConfig&);
};

constexpr Workload kWorkloads[] = {
    {"sweep-paper", "paper grid: per-cell fixed costs and the billing paths",
     run_sweep_paper},
    {"sweep-large", "2000-task DAGs: the scheduler core dominates",
     run_sweep_large},
    {"serve-cold", "unique requests: the uncached service path",
     run_serve_cold},
    {"serve-hot", "50 cached requests: loop, codecs and cache only",
     run_serve_hot},
    {"fabric", "sharded sweep over /v1/shard: fabric overhead",
     run_fabric},
};

std::string format_value(double value) {
  char buf[64];
  const auto res = std::to_chars(buf, buf + sizeof buf, value);
  return std::string(buf, res.ptr);
}

std::string one_line(std::string text) {
  for (char& c : text)
    if (c == '\n' || c == '\r') c = ' ';
  return text;
}

/// Child-to-parent wire: one record per line.
std::string serialize(const Report& report) {
  std::ostringstream out;
  out << "attempted " << report.attempted << '\n'
      << "failed " << report.failed << '\n';
  for (const std::string& e : report.errors)
    out << "error " << one_line(e) << '\n';
  for (const Metric& m : report.metrics)
    out << "metric " << (m.end_to_end ? 1 : 0) << ' ' << m.name << ' '
        << m.unit << ' ' << format_value(m.value) << '\n';
  return out.str();
}

Report deserialize(const std::string& text) {
  Report report;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    std::istringstream fields(line);
    std::string tag;
    fields >> tag;
    if (tag == "attempted") {
      fields >> report.attempted;
    } else if (tag == "failed") {
      fields >> report.failed;
    } else if (tag == "error") {
      report.errors.push_back(line.substr(6));
    } else if (tag == "metric") {
      Metric m;
      int e2e = 0;
      std::string value;
      fields >> e2e >> m.name >> m.unit >> value;
      m.end_to_end = e2e == 1;
      std::from_chars(value.data(), value.data() + value.size(), m.value);
      report.metrics.push_back(m);
    }
  }
  return report;
}

/// Runs one workload in a forked child and adds its peak RSS.
Report run_in_child(const Workload& workload, const RunConfig& config) {
  int fds[2];
  if (::pipe(fds) != 0) {
    Report r;
    r.fail("pipe: " + std::string(std::strerror(errno)));
    return r;
  }
  std::cout.flush();
  std::fflush(nullptr);
  const pid_t pid = ::fork();
  if (pid == 0) {
    ::close(fds[0]);
    // A hung workload must not hang the benchmark.
    ::alarm(static_cast<unsigned>(60 + 8 * config.seconds));
    Report report;
    try {
      report = workload.run(config);
    } catch (const std::exception& e) {
      report.fail(std::string("exception: ") + e.what());
    }
    const std::string wire = serialize(report);
    std::size_t off = 0;
    while (off < wire.size()) {
      const ssize_t n = ::write(fds[1], wire.data() + off, wire.size() - off);
      if (n <= 0) break;
      off += static_cast<std::size_t>(n);
    }
    ::_exit(0);
  }
  ::close(fds[1]);
  Report report;
  if (pid < 0) {
    ::close(fds[0]);
    report.fail("fork: " + std::string(std::strerror(errno)));
    return report;
  }
  std::string wire;
  char buf[4096];
  for (;;) {
    const ssize_t n = ::read(fds[0], buf, sizeof buf);
    if (n > 0) {
      wire.append(buf, static_cast<std::size_t>(n));
    } else if (n < 0 && errno == EINTR) {
      continue;
    } else {
      break;
    }
  }
  ::close(fds[0]);
  int status = 0;
  rusage usage{};
  while (::wait4(pid, &status, 0, &usage) < 0 && errno == EINTR) {
  }
  report = deserialize(wire);
  if (!WIFEXITED(status) || WEXITSTATUS(status) != 0 || wire.empty())
    report.fail(WIFSIGNALED(status)
                    ? "workload child killed by signal " +
                          std::to_string(WTERMSIG(status))
                    : "workload child exited abnormally");
  // ru_maxrss is in KiB on Linux.
  report.end_to_end("peak_rss_mb", static_cast<double>(usage.ru_maxrss) / 1024,
                    "MiB");
  return report;
}

/// Merges the per-workload Chrome traces into one file, one process row per
/// workload.
bool merge_traces(const std::vector<std::string>& parts,
                  const std::vector<std::string>& names,
                  const std::string& path) {
  namespace util = cloudwf::util;
  util::Json events = util::Json::array();
  for (std::size_t i = 0; i < parts.size(); ++i) {
    std::ifstream in(parts[i], std::ios::binary);
    if (!in) continue;
    std::stringstream text;
    text << in.rdbuf();
    in.close();
    std::remove(parts[i].c_str());
    const auto pid = static_cast<std::int64_t>(i + 1);
    util::Json meta = util::Json::object();
    meta["name"] = "process_name";
    meta["ph"] = "M";
    meta["pid"] = pid;
    util::Json args = util::Json::object();
    args["name"] = names[i];
    meta["args"] = std::move(args);
    events.push_back(std::move(meta));
    try {
      const util::Json part = util::Json::parse(text.str());
      const util::Json* part_events = part.find("traceEvents");
      if (part_events == nullptr) return false;
      for (const util::Json& ev : part_events->as_array()) {
        util::Json copy = ev;
        copy["pid"] = pid;
        events.push_back(std::move(copy));
      }
    } catch (const std::exception&) {
      return false;  // a part cut short by a failed workload
    }
  }
  util::Json root = util::Json::object();
  root["displayTimeUnit"] = "ms";
  root["traceEvents"] = std::move(events);
  std::ofstream out(path, std::ios::binary);
  out << root.dump() << '\n';
  return static_cast<bool>(out);
}

int usage() {
  std::cerr << "usage: cloudwf_bench [--workload NAME] [--seed N] "
               "[--seconds S] [--trace [0|1]] [--trace-out FILE] "
               "[--out FILE] [--smoke] [--write-golden]\n  workloads:";
  for (const Workload& w : kWorkloads) std::cerr << ' ' << w.name;
  std::cerr << '\n';
  return 2;
}

template <typename T>
bool parse_number(const char* text, T& out) {
  const char* end = text + std::strlen(text);
  const auto res = std::from_chars(text, end, out);
  return res.ec == std::errc{} && res.ptr == end;
}

}  // namespace

int main(int argc, char** argv) {
  RunConfig config;
  std::string only;
  std::string out_path;
  std::string trace_path = "bench_trace.json";
  for (int a = 1; a < argc; ++a) {
    const std::string arg = argv[a];
    const bool has_value = a + 1 < argc;
    if (arg == "--workload" && has_value) {
      only = argv[++a];
    } else if (arg == "--seed" && has_value) {
      if (!parse_number(argv[++a], config.seed)) return usage();
    } else if (arg == "--seconds" && has_value) {
      if (!parse_number(argv[++a], config.seconds) || !(config.seconds > 0) ||
          config.seconds > 60)
        return usage();
    } else if (arg == "--trace") {
      config.trace = true;
      if (has_value && (std::strcmp(argv[a + 1], "0") == 0 ||
                        std::strcmp(argv[a + 1], "1") == 0))
        config.trace = argv[++a][0] == '1';
    } else if (arg == "--trace-out" && has_value) {
      trace_path = argv[++a];
    } else if (arg == "--out" && has_value) {
      out_path = argv[++a];
    } else if (arg == "--smoke") {
      config.smoke = true;
      config.trace = true;
    } else if (arg == "--write-golden") {
      config.write_golden = true;
    } else {
      return usage();
    }
  }

  std::vector<const Workload*> selected;
  for (const Workload& w : kWorkloads)
    if (only.empty() || only == w.name) selected.push_back(&w);
  if (selected.empty()) return usage();

  bool all_correct = true;
  std::vector<std::string> trace_parts;
  std::vector<std::string> trace_names;
  cloudwf::util::Json results = cloudwf::util::Json::object();
  Report last;
  for (const Workload* w : selected) {
    RunConfig run = config;
    if (config.trace) {
      run.trace_out = trace_path + "." + w->name + ".part";
      trace_parts.push_back(run.trace_out);
      trace_names.emplace_back(w->name);
    }
    std::cout << "== " << w->name << " (" << w->why << ")\n" << std::flush;
    Report report = run_in_child(*w, run);
    for (Metric& m : report.metrics) {
      if (std::isfinite(m.value)) continue;
      report.fail("metric " + m.name + " is not finite");
      m.value = 0;
    }
    const bool correct = report.failed == 0 && report.errors.empty();
    all_correct = all_correct && correct;
    const double error_share =
        report.attempted == 0 ? 1.0
                              : static_cast<double>(report.failed) /
                                    static_cast<double>(report.attempted);

    cloudwf::util::Json metrics = cloudwf::util::Json::object();
    for (const Metric& m : report.metrics) {
      std::cout << "  " << (m.end_to_end ? "e2e   " : "layer ") << m.name
                << " = " << format_value(m.value) << ' ' << m.unit << '\n';
      cloudwf::util::Json entry = cloudwf::util::Json::object();
      entry["value"] = m.value;
      entry["unit"] = m.unit;
      metrics[m.name] = std::move(entry);
    }
    std::cout << "  e2e   error_share = " << format_value(error_share)
              << " fraction (" << report.failed << " of " << report.attempted
              << " failed)\n";
    cloudwf::util::Json errors = cloudwf::util::Json::array();
    for (const std::string& e : report.errors) {
      std::cout << "  FAIL  " << e << '\n';
      errors.push_back(e);
    }
    cloudwf::util::Json entry = cloudwf::util::Json::object();
    entry["correct"] = correct;
    entry["attempted"] = static_cast<std::int64_t>(report.attempted);
    entry["failed"] = static_cast<std::int64_t>(report.failed);
    entry["error_share"] = error_share;
    entry["metrics"] = std::move(metrics);
    entry["errors"] = std::move(errors);
    results[w->name] = std::move(entry);
    last = report;
  }

  if (config.trace && !merge_traces(trace_parts, trace_names, trace_path)) {
    std::cerr << "cannot write " << trace_path << '\n';
    all_correct = false;
  }
  if (!out_path.empty()) {
    cloudwf::util::Json root = cloudwf::util::Json::object();
    root["seed"] = static_cast<std::int64_t>(config.seed);
    root["seconds"] = config.seconds;
    root["trace"] = config.trace;
    root["workloads"] = std::move(results);
    std::ofstream out(out_path);
    out << root.dump() << '\n';
    if (!out) {
      std::cerr << "cannot write " << out_path << '\n';
      all_correct = false;
    }
  }

  if (!only.empty()) {
    // The one-line result: end-to-end metrics, or per-layer when tracing.
    std::string line = "{\"correct\": ";
    line += all_correct ? "true" : "false";
    line += ", \"attempted\": " + std::to_string(last.attempted);
    line += ", \"failed\": " + std::to_string(last.failed);
    line += ", \"metrics\": {";
    bool first = true;
    for (const Metric& m : last.metrics) {
      if (m.end_to_end == config.trace) continue;
      line += first ? "" : ", ";
      first = false;
      line += cloudwf::util::Json(m.name).dump() + ": {\"value\": " +
              format_value(m.value) + ", \"unit\": " +
              cloudwf::util::Json(m.unit).dump() + "}";
    }
    line += "}}";
    std::cout << line << std::endl;
  }
  return all_correct ? 0 : 1;
}
