// Measurement helpers shared by every cloudwf_bench workload: the clock,
// order statistics, thread CPU time, the splitmix calibration kernel as a
// host-speed probe, and a stable 64-bit digest for golden outputs.
#pragma once

#include <time.h>

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "util/rng.hpp"
#include "util/stats.hpp"

namespace cloudwf_bench {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

inline double ms_between(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double, std::milli>(to - from).count();
}

inline Clock::duration to_duration(double seconds) {
  return std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(seconds));
}

/// p-th percentile (0..100, linear interpolation); 0 for an empty sample.
inline double percentile(const std::vector<double>& xs, double p) {
  return xs.empty() ? 0.0 : cloudwf::util::percentile(xs, p);
}

inline double median(const std::vector<double>& xs) {
  return percentile(xs, 50);
}

/// CPU seconds consumed by the calling thread.
inline double thread_cpu_seconds() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         static_cast<double>(ts.tv_nsec) * 1e-9;
}

/// Median of per-operation rates, ops[i] per ms[i], in operations per
/// second.
inline double median_rate(const std::vector<double>& ops,
                          const std::vector<double>& ms) {
  std::vector<double> rates;
  for (std::size_t i = 0; i < ops.size() && i < ms.size(); ++i)
    if (ms[i] > 0) rates.push_back(ops[i] * 1000 / ms[i]);
  return median(rates);
}

/// The host-speed probe's nominal duration: a timing scaled by ScaledTimes
/// reads as it would on a host that runs probe_ms() in exactly this long.
inline constexpr double kProbeReferenceMs = 1.0;

/// One host-speed probe: 2^20 steps of the splitmix calibration kernel the
/// BENCH_* gates also normalize by, about 1 ms, after an untimed eighth of
/// that to bring an idle core back up to speed.
inline double probe_ms() {
  std::uint64_t state = 0x1db2013, acc = 0;
  for (int i = 0; i < (1 << 17); ++i) acc ^= cloudwf::util::splitmix64(state);
  const Clock::time_point start = Clock::now();
  for (int i = 0; i < (1 << 20); ++i) acc ^= cloudwf::util::splitmix64(state);
  const double ms = ms_between(start, Clock::now());
  return acc == 0 ? ms + 1e-9 : ms;
}

/// Durations of a series of timed operations, each also scaled to the
/// reference host speed. A shared host slows every core by tens of percent
/// for seconds at a time; the probe slows with it (on the 4-vCPU VM the
/// benchmark was tuned on, its time tracks a sweep call's with correlation
/// 0.7-0.9), so dividing each operation by the slowdown probed just before
/// and just after it removes most of that drift from run-to-run
/// comparisons.
class ScaledTimes {
 public:
  /// `probe_threads` > 1 probes that many cores at once (the caller and
  /// probe_threads - 1 short-lived threads) and averages them: the speed a
  /// multi-threaded operation saw is the speed of every core it ran on.
  explicit ScaledTimes(std::size_t probe_threads = 1)
      : probe_threads_(probe_threads), last_probe_ms_(probe()) {}

  /// Records one operation that took `raw_ms`, probes the host, and returns
  /// the factor that scales this operation's timings to the reference host.
  double add(double raw_ms) {
    const double probe = this->probe();
    const double factor = 2 * kProbeReferenceMs / (last_probe_ms_ + probe);
    last_probe_ms_ = probe;
    raw_ms_.push_back(raw_ms);
    scaled_ms_.push_back(raw_ms * factor);
    factors_.push_back(factor);
    return factor;
  }

  [[nodiscard]] const std::vector<double>& raw_ms() const { return raw_ms_; }
  [[nodiscard]] const std::vector<double>& scaled_ms() const {
    return scaled_ms_;
  }
  /// Median host factor: raw timing ~= scaled timing / this.
  [[nodiscard]] double host_factor() const { return median(factors_); }

 private:
  double probe() const {
    if (probe_threads_ <= 1) return probe_ms();
    std::vector<double> ms(probe_threads_, 0);
    {
      std::vector<std::jthread> threads;
      for (std::size_t t = 1; t < probe_threads_; ++t)
        threads.emplace_back([&ms, t] { ms[t] = probe_ms(); });
      ms[0] = probe_ms();
    }  // joins
    double sum = 0;
    for (const double m : ms) sum += m;
    return sum / static_cast<double>(ms.size());
  }

  std::size_t probe_threads_;
  double last_probe_ms_;
  std::vector<double> raw_ms_;
  std::vector<double> scaled_ms_;
  std::vector<double> factors_;
};

/// FNV-1a over a byte stream: stable across builds and hosts, enough to pin
/// a canonical output against a committed digest.
class Digest {
 public:
  void add(std::string_view bytes) {
    for (const char c : bytes) {
      hash_ ^= static_cast<unsigned char>(c);
      hash_ *= 0x100000001b3ULL;
    }
  }
  [[nodiscard]] std::uint64_t value() const noexcept { return hash_; }
  [[nodiscard]] std::string hex() const {
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(hash_));
    return buf;
  }

 private:
  std::uint64_t hash_ = 0xcbf29ce484222325ULL;
};

inline std::uint64_t digest_of(std::string_view bytes) {
  Digest d;
  d.add(bytes);
  return d.value();
}

}  // namespace cloudwf_bench
