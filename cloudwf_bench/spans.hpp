// Benchmark-side tracing. A span is timed around one call into a layer's
// public functions, from outside: the program itself carries no
// instrumentation. Spans nest per thread, each records its parent span and
// the operation (group, request, shard) it belongs to, and the whole set is
// written as a Chrome trace when the run ends.
#pragma once

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "harness.hpp"

namespace cloudwf_bench {

class Spans {
 public:
  /// A disabled recorder makes every scope a no-op (the untraced replay
  /// that trace.overhead divides by).
  explicit Spans(bool enabled) : enabled_(enabled) {}

  Spans(const Spans&) = delete;
  Spans& operator=(const Spans&) = delete;

  class Scope {
   public:
    Scope(Spans* owner, const char* name, std::uint64_t op);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Spans* owner_;
    const char* name_;
    std::uint64_t op_;
    std::uint64_t id_ = 0;
    std::uint64_t parent_ = 0;
    Clock::time_point start_;
  };

  /// Opens a span named `name` (a static "layer.call" string) that closes
  /// when the returned scope is destroyed.
  [[nodiscard]] Scope scope(const char* name, std::uint64_t op = 0) {
    return Scope(enabled_ ? this : nullptr, name, op);
  }

  struct Total {
    double ms = 0;
    std::uint64_t calls = 0;
  };
  /// Busy time and call count per span name.
  [[nodiscard]] std::map<std::string, Total> totals() const;

  /// Chrome trace-event JSON (chrome://tracing, Perfetto). False when the
  /// file cannot be written.
  bool write_chrome_trace(const std::string& path) const;

 private:
  struct Event {
    const char* name;
    std::uint64_t id;
    std::uint64_t parent;
    std::uint64_t op;
    int tid;
    double start_us;
    double dur_us;
  };
  void record(const Event& event);

  bool enabled_;
  Clock::time_point origin_ = Clock::now();
  mutable std::mutex mutex_;
  std::vector<Event> events_;  ///< guarded by mutex_
};

}  // namespace cloudwf_bench
