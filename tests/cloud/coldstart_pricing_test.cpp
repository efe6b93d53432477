// Unit coverage for the scenario environment extensions: cold-start delay
// models, time-varying price schedules, and the vm_bill composition that
// folds both into the BTU billing rules.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <cmath>
#include <latch>
#include <numeric>
#include <thread>
#include <vector>

#include "cloud/coldstart.hpp"
#include "cloud/platform.hpp"
#include "cloud/pricing.hpp"
#include "cloud/vm_billing.hpp"

namespace cloudwf::cloud {
namespace {

TEST(ColdStart, DelaysAreInRangeAndDeterministic) {
  const ColdStartModel model{300.0, 600.0, 99};
  for (InstanceSize size : kAllSizes) {
    for (RegionId region = 0; region < 7; ++region) {
      const util::Seconds d = model.delay(size, region);
      EXPECT_GE(d, 300.0);
      EXPECT_LT(d, 600.0);
      EXPECT_DOUBLE_EQ(d, model.delay(size, region));  // pure function
    }
  }
}

TEST(ColdStart, DistinctPairsAndSeedsDrawDistinctDelays) {
  const ColdStartModel a{300.0, 600.0, 1};
  const ColdStartModel b{300.0, 600.0, 2};
  EXPECT_NE(a.delay(InstanceSize::small, 0), a.delay(InstanceSize::large, 0));
  EXPECT_NE(a.delay(InstanceSize::small, 0), a.delay(InstanceSize::small, 1));
  EXPECT_NE(a.delay(InstanceSize::small, 0), b.delay(InstanceSize::small, 0));
}

TEST(ColdStart, TableMatchesModel) {
  const ColdStartModel model{300.0, 600.0, 7};
  const ColdStartTable table(model, 7);
  for (InstanceSize size : kAllSizes)
    for (RegionId region = 0; region < 7; ++region)
      EXPECT_DOUBLE_EQ(table.delay(size, region), model.delay(size, region));
}

TEST(PriceSchedule, FractionsClampedAndDeterministic) {
  const PriceTrajectoryModel model;  // floor 0.4, cap 2.0
  const PriceSchedule a(model, 24 * 3600.0, 5);
  const PriceSchedule b(model, 24 * 3600.0, 5);
  bool moved = false;
  for (util::Seconds t = -1000.0; t <= 25 * 3600.0; t += 450.0) {
    const double f = a.fraction_at(InstanceSize::medium, t);
    EXPECT_GE(f, model.floor_fraction);
    EXPECT_LE(f, model.cap_fraction);
    EXPECT_DOUBLE_EQ(f, b.fraction_at(InstanceSize::medium, t));
    if (f != a.fraction_at(InstanceSize::medium, 0.0)) moved = true;
  }
  EXPECT_TRUE(moved);  // prices actually vary over the horizon
}

TEST(PriceSchedule, SizesDrawIndependentPaths) {
  const PriceSchedule s(PriceTrajectoryModel{}, 24 * 3600.0, 5);
  bool any_differ = false;
  for (util::Seconds t = 0.0; t <= 24 * 3600.0; t += 900.0)
    if (s.fraction_at(InstanceSize::small, t) !=
        s.fraction_at(InstanceSize::xlarge, t))
      any_differ = true;
  EXPECT_TRUE(any_differ);
}

/// The paper-scale horizon the variable-price scenario prices over.
constexpr util::Seconds kWeek = 7 * 24 * 3600.0;

/// Every size's path over `horizon` from the eager sampler, drawn from the
/// per-size substreams PriceSchedule documents: the reference a lazily
/// drawn schedule must equal bit for bit.
std::array<std::vector<double>, kSizeCount> eager_paths(
    const PriceTrajectoryModel& model, util::Seconds horizon,
    std::uint64_t seed) {
  const auto points =
      static_cast<std::size_t>(std::ceil(horizon / model.tick)) + 1;
  std::array<std::vector<double>, kSizeCount> out;
  for (InstanceSize s : kAllSizes) {
    std::uint64_t state = seed ^ (0xd1b54a32d192ed03ULL * (index_of(s) + 1));
    util::Rng rng(util::splitmix64(state));
    out[index_of(s)] = sample_price_fractions(
        model.mean_fraction, model.reversion, model.volatility,
        model.floor_fraction, model.cap_fraction, points, rng);
  }
  return out;
}

/// Tick indices [0, n) forward, backward and in a seeded random order.
std::array<std::vector<std::size_t>, 3> read_orders(std::size_t n,
                                                    std::uint64_t seed) {
  std::vector<std::size_t> forward(n);
  std::iota(forward.begin(), forward.end(), std::size_t{0});
  std::vector<std::size_t> backward(forward.rbegin(), forward.rend());
  std::vector<std::size_t> shuffled = forward;
  util::Rng rng(seed);
  std::shuffle(shuffled.begin(), shuffled.end(), rng);
  return {forward, backward, shuffled};
}

TEST(PriceSchedule, LazyPathsEqualTheEagerSamplerInAnyReadOrder) {
  const PriceTrajectoryModel model;
  for (const std::uint64_t seed : {1ULL, 42ULL, 20120131ULL}) {
    const auto want = eager_paths(model, kWeek, seed);
    for (const std::vector<std::size_t>& order :
         read_orders(want[0].size(), seed)) {
      const PriceSchedule schedule(model, kWeek, seed);
      for (const std::size_t tick : order)
        for (InstanceSize s : kAllSizes)
          ASSERT_EQ(schedule.fraction_at(s, static_cast<double>(tick) * model.tick),
                    want[index_of(s)][tick])
              << "seed " << seed << ", size " << index_of(s) << ", tick "
              << tick;
    }
  }
}

// Four threads read one shared schedule at once, each in its own order, so
// draws race with lock-free reads of published ticks. Carries the tsan
// ctest label: under ThreadSanitizer an unsynchronized access fails it.
TEST(PriceScheduleConcurrency, SharedScheduleReadsEqualTheEagerSampler) {
  constexpr int kThreads = 4;
  constexpr int kRounds = 8;
  const PriceTrajectoryModel model;
  const auto want = eager_paths(model, kWeek, 7);
  const std::size_t ticks = want[0].size();

  std::atomic<int> mismatches{0};
  for (int round = 0; round < kRounds; ++round) {
    const PriceSchedule schedule(model, kWeek, 7);
    std::latch start(kThreads);
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&, t] {
        const std::vector<std::size_t> order =
            read_orders(ticks, static_cast<std::uint64_t>(round * kThreads + t))
                [static_cast<std::size_t>(t) % 3];
        start.arrive_and_wait();
        for (const std::size_t tick : order)
          for (InstanceSize s : kAllSizes)
            if (schedule.fraction_at(s, static_cast<double>(tick) * model.tick) !=
                want[index_of(s)][tick])
              mismatches.fetch_add(1, std::memory_order_relaxed);
      });
    }
    for (std::thread& thread : threads) thread.join();
  }
  EXPECT_EQ(mismatches.load(), 0);
}

TEST(VmBilling, NoModelsDelegatesToFlatAccounting) {
  const Platform platform = Platform::ec2();
  Vm vm(0, InstanceSize::medium, platform.default_region_id());
  vm.place(0, 100.0, 500.0);
  vm.place(1, 5000.0, 6000.0);  // second session

  const VmBill bill = vm_bill(vm, platform);
  EXPECT_EQ(bill.btus, vm.btus());
  EXPECT_DOUBLE_EQ(bill.paid, vm.paid_time());
  EXPECT_EQ(bill.cost, vm.cost(platform.default_region()));
  EXPECT_EQ(pool_rental_cost(VmPool{}, platform), util::Money{});
}

TEST(VmBilling, ColdStartExtendsOnlyTheFirstSession) {
  Platform platform = Platform::ec2();
  platform.install_cold_start(ColdStartModel{300.0, 600.0, 3});
  const RegionId region = platform.default_region_id();
  const util::Seconds cold =
      platform.cold_start_delay(InstanceSize::small, region);
  ASSERT_GT(cold, 0.0);

  // First session exactly fills one BTU without the delay; the cold start
  // pushes it over the boundary into a second billed BTU. The reused
  // (warm) session stays at its flat BTU count.
  Vm vm(0, InstanceSize::small, region);
  vm.place(0, 1000.0, 1000.0 + util::kBtu);
  vm.place(1, 50000.0, 50500.0);
  ASSERT_EQ(vm.sessions().size(), 2u);
  ASSERT_EQ(vm.btus(), 2);  // 1 + 1 without the delay

  const VmBill bill = vm_bill(vm, platform);
  EXPECT_EQ(bill.btus, 3);  // first session: 2 BTUs once extended backwards
  EXPECT_DOUBLE_EQ(bill.paid, 3.0 * util::kBtu);
  EXPECT_EQ(bill.cost, platform.region(region).price(InstanceSize::small) * 3);
}

TEST(VmBilling, PriceScheduleChargesEachBtuAtItsStart) {
  Platform platform = Platform::ec2();
  platform.install_price_schedule(
      PriceSchedule(PriceTrajectoryModel{}, 24 * 3600.0, 11));
  const RegionId region = platform.default_region_id();
  const PriceSchedule* prices = platform.price_schedule();
  ASSERT_NE(prices, nullptr);

  Vm vm(0, InstanceSize::large, region);
  vm.place(0, 2000.0, 2000.0 + 2.5 * util::kBtu);  // 3 BTUs from t=2000

  util::Money expected;
  const util::Money list = platform.region(region).price(InstanceSize::large);
  for (int k = 0; k < 3; ++k)
    expected += list.scaled(
        prices->fraction_at(InstanceSize::large, 2000.0 + k * util::kBtu));

  const VmBill bill = vm_bill(vm, platform);
  EXPECT_EQ(bill.btus, 3);
  EXPECT_EQ(bill.cost, expected);
  EXPECT_NE(bill.cost, list * 3);  // timing actually moved the bill
}

TEST(VmBilling, PoolCostMatchesFlatWhenNoModels) {
  const Platform platform = Platform::ec2();
  VmPool pool;
  pool.rent(InstanceSize::small, platform.default_region_id());
  pool.rent(InstanceSize::xlarge, platform.default_region_id());
  pool.place(0, 0, 0.0, 1800.0);
  pool.place(1, 1, 100.0, 4000.0);
  EXPECT_EQ(pool_rental_cost(pool, platform),
            pool.rental_cost(platform.regions()));
}

}  // namespace
}  // namespace cloudwf::cloud
