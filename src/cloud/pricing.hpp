// Time-varying on-demand pricing.
//
// Table II's prices are a snapshot of October 31st 2012; real clouds reprice
// continuously. A PriceSchedule carries one sampled price-multiplier path per
// instance size — a mean-reverting log-space walk around the on-demand list
// price — so a BTU rented at time t costs
// list_price x fraction_at(size, t). Strategies keep planning against the
// list price (they cannot see the future); what they pay depends on *when*
// they rent, which is exactly the axis the variable-price scenario studies.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "cloud/instance.hpp"
#include "util/rng.hpp"
#include "util/units.hpp"

namespace cloudwf::cloud {

/// Parameters of one mean-reverting multiplier path (the defaults describe
/// on-demand repricing, which hovers around the list price rather than a
/// deep discount).
struct PriceTrajectoryModel {
  double mean_fraction = 1.0;   ///< long-run multiplier on the list price
  double reversion = 0.15;      ///< log-space mean reversion per tick, (0, 1]
  double volatility = 0.10;     ///< per-tick log-normal volatility
  double floor_fraction = 0.4;  ///< hard clamp below
  double cap_fraction = 2.0;    ///< hard clamp above
  util::Seconds tick = 900.0;   ///< repricing period
};

/// Samples ceil(horizon/tick)+1 multiplier points of the mean-reverting
/// log-space walk (Box-Muller normals from `rng`), clamped into
/// [floor_fraction, cap_fraction]. Each PriceSchedule path draws its points
/// with the same step, so this eager sampler is the reference its lazy
/// paths are tested against. Throws std::invalid_argument on bad
/// parameters.
[[nodiscard]] std::vector<double> sample_price_fractions(
    double mean_fraction, double reversion, double volatility,
    double floor_fraction, double cap_fraction, std::size_t points,
    util::Rng& rng);

/// One multiplier path per instance size over [0, horizon], piecewise
/// constant on tick boundaries and clamped into the horizon outside it.
/// Deterministic per (model, horizon, seed): each size draws from its own
/// splitmix-derived substream.
///
/// Paths are drawn lazily: reading a tick draws that size's walk up to it,
/// so a schedule pays only for the ticks its bills read, and every drawn
/// prefix is bitwise the eager sampler's path. Reads are thread-safe; a
/// tick already drawn is read without a lock.
class PriceSchedule {
 public:
  PriceSchedule(const PriceTrajectoryModel& model, util::Seconds horizon,
                std::uint64_t seed);
  PriceSchedule(PriceSchedule&&) noexcept;
  PriceSchedule& operator=(PriceSchedule&&) noexcept;
  ~PriceSchedule();

  [[nodiscard]] const PriceTrajectoryModel& model() const noexcept {
    return model_;
  }
  [[nodiscard]] util::Seconds horizon() const noexcept { return horizon_; }
  [[nodiscard]] std::uint64_t seed() const noexcept { return seed_; }

  /// Multiplier on the list price for a BTU whose rental starts at `t`
  /// (clamped into [0, horizon]).
  [[nodiscard]] double fraction_at(InstanceSize size, util::Seconds t) const;

 private:
  struct Path;
  struct Paths;
  /// Draws `path` through `tick` under its lock and returns that point.
  [[nodiscard]] double draw_through(Path& path, std::size_t tick) const;

  PriceTrajectoryModel model_;
  util::Seconds horizon_;
  std::uint64_t seed_;
  std::size_t points_;  ///< ticks in the horizon: ceil(horizon / tick) + 1
  std::unique_ptr<Paths> paths_;
};

}  // namespace cloudwf::cloud
