#include "cloud/pricing.hpp"

#include <algorithm>
#include <array>
#include <atomic>
#include <cmath>
#include <mutex>
#include <stdexcept>

namespace cloudwf::cloud {

namespace {

/// The mean-reverting log-space walk, with checked parameters.
struct PriceWalk {
  double log_mean = 0;
  double reversion = 0;
  double volatility = 0;
  double floor_fraction = 0;
  double cap_fraction = 0;

  /// Draws point `i` of a path from `rng`, advancing the path's
  /// log-multiplier `log_f` (which starts at log_mean). Box-Muller takes two
  /// uniforms per point, even at i == 0, which fixes the stream layout every
  /// committed price path was drawn with.
  double point(std::size_t i, double& log_f, util::Rng& rng) const {
    const double u1 = 1.0 - rng.uniform();
    const double u2 = rng.uniform();
    if (i > 0) {
      const double z = std::sqrt(-2.0 * std::log(u1)) *
                       std::cos(2.0 * 3.14159265358979323846 * u2);
      log_f += reversion * (log_mean - log_f) + volatility * z;
    }
    return std::clamp(std::exp(log_f), floor_fraction, cap_fraction);
  }
};

PriceWalk checked_walk(double mean_fraction, double reversion,
                       double volatility, double floor_fraction,
                       double cap_fraction) {
  if (!(mean_fraction > 0) || floor_fraction <= 0 ||
      cap_fraction < floor_fraction || reversion <= 0 || reversion > 1 ||
      volatility < 0)
    throw std::invalid_argument("sample_price_fractions: bad model parameters");
  return {std::log(mean_fraction), reversion, volatility, floor_fraction,
          cap_fraction};
}

}  // namespace

std::vector<double> sample_price_fractions(double mean_fraction,
                                           double reversion, double volatility,
                                           double floor_fraction,
                                           double cap_fraction,
                                           std::size_t points, util::Rng& rng) {
  const PriceWalk walk = checked_walk(mean_fraction, reversion, volatility,
                                      floor_fraction, cap_fraction);
  if (points == 0)
    throw std::invalid_argument("sample_price_fractions: zero points");

  std::vector<double> out;
  out.reserve(points);
  double log_f = walk.log_mean;
  for (std::size_t i = 0; i < points; ++i)
    out.push_back(walk.point(i, log_f, rng));
  return out;
}

/// One size's walk. Points [0, drawn) are final: a reader whose tick is
/// below `drawn` (acquire) reads the point without a lock; a reader past it
/// takes `mutex` and extends the walk, publishing with a release store.
struct PriceSchedule::Path {
  std::mutex mutex;  ///< guards rng, log_f and the points past `drawn`
  util::Rng rng;
  double log_f = 0;
  std::unique_ptr<double[]> points;  ///< points_ long, allocated on first draw
  std::atomic<std::size_t> drawn{0};
};

struct PriceSchedule::Paths {
  PriceWalk walk;
  std::array<Path, kSizeCount> by_size;
};

PriceSchedule::PriceSchedule(const PriceTrajectoryModel& model,
                             util::Seconds horizon, std::uint64_t seed)
    : model_(model), horizon_(horizon), seed_(seed), points_(0) {
  if (!(model.tick > 0))
    throw std::invalid_argument("PriceSchedule: bad tick");
  if (!(horizon > 0)) throw std::invalid_argument("PriceSchedule: bad horizon");
  points_ = static_cast<std::size_t>(std::ceil(horizon / model.tick)) + 1;
  paths_ = std::make_unique<Paths>();
  paths_->walk =
      checked_walk(model.mean_fraction, model.reversion, model.volatility,
                   model.floor_fraction, model.cap_fraction);
  for (InstanceSize s : kAllSizes) {
    std::uint64_t state =
        seed ^ (0xd1b54a32d192ed03ULL * (index_of(s) + 1));
    Path& path = paths_->by_size[index_of(s)];
    path.rng = util::Rng(util::splitmix64(state));
    path.log_f = paths_->walk.log_mean;
  }
}

PriceSchedule::PriceSchedule(PriceSchedule&&) noexcept = default;
PriceSchedule& PriceSchedule::operator=(PriceSchedule&&) noexcept = default;
PriceSchedule::~PriceSchedule() = default;

double PriceSchedule::fraction_at(InstanceSize size, util::Seconds t) const {
  const double clamped = std::clamp(t, 0.0, horizon_);
  const std::size_t tick = std::min(
      points_ - 1, static_cast<std::size_t>(clamped / model_.tick));
  Path& path = paths_->by_size[index_of(size)];
  if (tick < path.drawn.load(std::memory_order_acquire))
    return path.points[tick];
  return draw_through(path, tick);
}

double PriceSchedule::draw_through(Path& path, std::size_t tick) const {
  const std::lock_guard lock(path.mutex);
  std::size_t n = path.drawn.load(std::memory_order_relaxed);
  if (n <= tick) {
    if (!path.points)
      path.points = std::make_unique_for_overwrite<double[]>(points_);
    for (; n <= tick; ++n)
      path.points[n] = paths_->walk.point(n, path.log_f, path.rng);
    path.drawn.store(n, std::memory_order_release);
  }
  return path.points[tick];
}

}  // namespace cloudwf::cloud
