#include "spans.hpp"

#include <atomic>
#include <fstream>

#include "util/json.hpp"

namespace cloudwf_bench {

namespace {

std::atomic<std::uint64_t> next_span_id{1};
std::atomic<int> next_tid{1};
thread_local std::uint64_t current_span = 0;
thread_local int thread_tid = 0;

int this_tid() {
  if (thread_tid == 0) thread_tid = next_tid.fetch_add(1);
  return thread_tid;
}

}  // namespace

Spans::Scope::Scope(Spans* owner, const char* name, std::uint64_t op)
    : owner_(owner), name_(name), op_(op) {
  if (owner_ == nullptr) return;
  id_ = next_span_id.fetch_add(1, std::memory_order_relaxed);
  parent_ = current_span;
  current_span = id_;
  start_ = Clock::now();
}

Spans::Scope::~Scope() {
  if (owner_ == nullptr) return;
  const Clock::time_point end = Clock::now();
  current_span = parent_;
  const auto us = [&](Clock::time_point t) {
    return std::chrono::duration<double, std::micro>(t - owner_->origin_)
        .count();
  };
  owner_->record({name_, id_, parent_, op_, this_tid(), us(start_),
                  us(end) - us(start_)});
}

void Spans::record(const Event& event) {
  const std::lock_guard<std::mutex> lock(mutex_);
  events_.push_back(event);
}

std::map<std::string, Spans::Total> Spans::totals() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  std::map<std::string, Total> out;
  for (const Event& e : events_) {
    Total& t = out[e.name];
    t.ms += e.dur_us / 1000.0;
    ++t.calls;
  }
  return out;
}

bool Spans::write_chrome_trace(const std::string& path) const {
  std::string out = "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    bool first = true;
    for (const Event& e : events_) {
      const std::string name = e.name;
      cloudwf::util::Json ev = cloudwf::util::Json::object();
      ev["name"] = name;
      ev["cat"] = name.substr(0, name.find('.'));
      ev["ph"] = "X";
      ev["pid"] = 1;
      ev["tid"] = e.tid;
      ev["ts"] = e.start_us;
      ev["dur"] = e.dur_us;
      cloudwf::util::Json args = cloudwf::util::Json::object();
      args["span"] = static_cast<std::int64_t>(e.id);
      args["parent"] = static_cast<std::int64_t>(e.parent);
      args["op"] = static_cast<std::int64_t>(e.op);
      ev["args"] = std::move(args);
      if (!first) out += ',';
      first = false;
      out += ev.dump();
    }
  }
  out += "]}\n";
  std::ofstream file(path, std::ios::binary);
  file << out;
  return static_cast<bool>(file);
}

}  // namespace cloudwf_bench
