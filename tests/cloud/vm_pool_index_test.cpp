// VmPool reuse-index properties: the incrementally maintained
// (busy desc, id asc) order must equal a fresh sort after any sequence of
// appends, and survive every path that dirties it (mutable access, timeline
// clears). The busy-time cache must equal the summed placements.
#include "cloud/vm.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "obs/work.hpp"
#include "util/rng.hpp"

namespace cloudwf::cloud {
namespace {

std::vector<VmId> fresh_sorted_order(const VmPool& pool) {
  std::vector<VmId> order;
  for (const Vm& v : pool.vms())
    if (v.used()) order.push_back(v.id());
  std::sort(order.begin(), order.end(), [&](VmId a, VmId b) {
    const util::Seconds ba = pool.vm(a).busy_time();
    const util::Seconds bb = pool.vm(b).busy_time();
    if (ba != bb) return ba > bb;
    return a < b;
  });
  return order;
}

std::vector<VmId> walk(const VmPool& pool) {
  const ReuseOrder& order = pool.reuse_order();
  return {order.begin(), order.end()};
}

void expect_index_matches(const VmPool& pool) {
  const std::vector<VmId> order = walk(pool);
  const std::vector<VmId> expected = fresh_sorted_order(pool);
  ASSERT_EQ(order.size(), expected.size());
  for (std::size_t i = 0; i < expected.size(); ++i)
    EXPECT_EQ(order[i], expected[i]) << "slot " << i;
}

util::Seconds summed_busy(const Vm& v) {
  util::Seconds total = 0;
  for (const Placement& p : v.placements()) total += p.end - p.start;
  return total;
}

TEST(VmPoolIndex, IncrementalOrderEqualsFreshSortUnderRandomAppends) {
  util::Rng rng(97);
  VmPool pool;
  for (int i = 0; i < 12; ++i)
    (void)pool.rent(InstanceSize::small, 0);

  std::vector<util::Seconds> next_free(12, 0.0);
  for (dag::TaskId task = 0; task < 200; ++task) {
    const auto id = static_cast<VmId>(rng.between(0, 11));
    const util::Seconds start = next_free[id];
    const util::Seconds end = start + rng.uniform(0.5, 900.0);
    pool.place(id, task, start, end);
    next_free[id] = end;
    if (task % 17 == 0) expect_index_matches(pool);
  }
  expect_index_matches(pool);
  for (const Vm& v : pool.vms())
    EXPECT_EQ(v.busy_time(), summed_busy(v)) << "vm " << v.id();
}

TEST(VmPoolIndex, RebuildsAfterMutableAccessAndClear) {
  VmPool pool;
  for (int i = 0; i < 4; ++i) (void)pool.rent(InstanceSize::medium, 0);
  pool.place(2, 0, 0.0, 100.0);
  pool.place(0, 1, 0.0, 50.0);
  expect_index_matches(pool);

  // Rewriting a timeline through the mutable accessor must dirty the index.
  const std::uint64_t epoch_before = pool.mutation_epoch();
  pool.vm(0).clear();
  pool.vm(0).place(1, 0.0, 400.0);
  EXPECT_GT(pool.mutation_epoch(), epoch_before);
  expect_index_matches(pool);
  EXPECT_EQ(pool.reuse_order().front(), 0u) << "vm 0 is now the busiest";

  pool.clear_placements();
  EXPECT_TRUE(pool.reuse_order().empty());
  pool.place(3, 2, 0.0, 10.0);
  expect_index_matches(pool);
}

TEST(VmPoolIndex, AppendsDoNotBumpTheMutationEpoch) {
  VmPool pool;
  (void)pool.rent(InstanceSize::small, 0);
  const std::uint64_t epoch = pool.mutation_epoch();
  pool.place(0, 0, 0.0, 5.0);
  pool.place(0, 1, 5.0, 9.0);
  EXPECT_EQ(pool.mutation_epoch(), epoch)
      << "append-only growth must keep derived caches incremental";
}

TEST(VmPoolIndex, VerificationModeAcceptsTheIncrementalIndex) {
  VmPool::set_index_verification(true);
  VmPool pool;
  for (int i = 0; i < 6; ++i) (void)pool.rent(InstanceSize::large, 0);
  util::Rng rng(7);
  std::vector<util::Seconds> next_free(6, 0.0);
  for (dag::TaskId task = 0; task < 60; ++task) {
    const auto id = static_cast<VmId>(rng.between(0, 5));
    const util::Seconds end = next_free[id] + rng.uniform(1.0, 50.0);
    pool.place(id, task, next_free[id], end);
    next_free[id] = end;
    EXPECT_NO_THROW((void)pool.reuse_order());
  }
  VmPool::set_index_verification(false);
}

TEST(VmPoolIndex, TiesBreakTowardTheLowerId) {
  VmPool pool;
  for (int i = 0; i < 3; ++i) (void)pool.rent(InstanceSize::small, 0);
  pool.place(2, 0, 0.0, 30.0);
  pool.place(1, 1, 0.0, 30.0);
  const std::vector<VmId> order = walk(pool);
  ASSERT_EQ(order.size(), 2u);
  EXPECT_EQ(order[0], 1u);
  EXPECT_EQ(order[1], 2u);
}

// Appends one placement of `length` seconds at the VM's free time.
void append(VmPool& pool, VmId id, util::Seconds length) {
  static dag::TaskId next_task = 0;
  const util::Seconds start = std::as_const(pool).vm(id).available_from();
  pool.place(id, next_task++, start, start + length);
}

TEST(VmPoolIndex, FirstUseLandsAtTheFrontMiddleAndBack) {
  VmPool pool;
  for (int i = 0; i < 6; ++i) (void)pool.rent(InstanceSize::small, 0);
  append(pool, 0, 100.0);
  append(pool, 1, 50.0);
  append(pool, 2, 10.0);
  expect_index_matches(pool);  // builds the index
  append(pool, 3, 200.0);      // new head
  expect_index_matches(pool);
  EXPECT_EQ(pool.reuse_order().front(), 3u);
  append(pool, 4, 70.0);  // between 0 and 1
  expect_index_matches(pool);
  append(pool, 5, 1.0);  // new tail
  expect_index_matches(pool);
  EXPECT_EQ(walk(pool), (std::vector<VmId>{3, 0, 4, 1, 2, 5}));
}

TEST(VmPoolIndex, LongRunsOfEqualBusyTimesBreakTiesOnId) {
  VmPool pool;
  constexpr VmId kVms = 96;
  for (VmId i = 0; i < kVms; ++i) (void)pool.rent(InstanceSize::small, 0);
  (void)pool.reuse_order();  // built while empty: every first use inserts
  // First uses in a scrambled id order, all with the same busy time.
  for (VmId k = 0; k < kVms; ++k) append(pool, (k * 37) % kVms, 30.0);
  const std::vector<VmId> order = walk(pool);
  ASSERT_EQ(order.size(), kVms);
  for (VmId k = 0; k < kVms; ++k) EXPECT_EQ(order[k], k) << "slot " << k;
  expect_index_matches(pool);
}

TEST(VmPoolIndex, GrowthMovesPastManyEqualVms) {
  VmPool pool;
  constexpr VmId kVms = 64;
  for (VmId i = 0; i < kVms; ++i) (void)pool.rent(InstanceSize::small, 0);
  for (VmId i = 0; i < kVms; ++i) append(pool, i, 30.0);
  expect_index_matches(pool);
  append(pool, 63, 1.0);  // past all 63 equal VMs to the head
  EXPECT_EQ(pool.reuse_order().front(), 63u);
  append(pool, 40, 1.0);  // ties the head: the lower id wins
  EXPECT_EQ(pool.reuse_order().front(), 40u);
  append(pool, 7, 0.5);  // between the two grown VMs and the rest
  expect_index_matches(pool);
  EXPECT_EQ(walk(pool)[2], 7u);
  append(pool, 12, 0.0);  // zero growth: order unchanged
  expect_index_matches(pool);
}

TEST(VmPoolIndex, IndexStartsLazyAndIsBuiltByTheFirstQuery) {
  VmPool pool;
  for (int i = 0; i < 50; ++i) (void)pool.rent(InstanceSize::small, 0);
  const std::uint64_t before = obs::work_total(obs::Work::reuse_slots_moved);
  for (VmId i = 0; i < 50; ++i) append(pool, i, 1.0 + (i * 7) % 13);
  EXPECT_EQ(obs::work_total(obs::Work::reuse_slots_moved), before)
      << "appends before any query must not maintain the index";
  expect_index_matches(pool);
  EXPECT_EQ(obs::work_total(obs::Work::reuse_slots_moved), before + 50)
      << "the first query writes each used VM once";
}

TEST(VmPoolIndex, MutableVmsAccessRebuildsOnTheNextQuery) {
  VmPool pool;
  for (int i = 0; i < 5; ++i) (void)pool.rent(InstanceSize::small, 0);
  for (VmId i = 0; i < 4; ++i) append(pool, i, 10.0 * (i + 1));
  expect_index_matches(pool);
  std::vector<Vm>& vms = pool.vms();  // may rewrite any timeline
  vms[0].place(99, 500.0, 900.0);
  vms[3].clear();
  vms[4].place(98, 0.0, 5.0);
  expect_index_matches(pool);
  EXPECT_EQ(walk(pool), (std::vector<VmId>{0, 2, 1, 4}));
  pool.clear_placements();
  append(pool, 2, 3.0);
  expect_index_matches(pool);
  append(pool, 1, 4.0);
  expect_index_matches(pool);
}

TEST(VmPoolIndex, ManyVmsUnderVerificationStayConsistent) {
  VmPool::set_index_verification(true);
  util::Rng rng(2026);
  VmPool pool;
  for (int i = 0; i < 400; ++i) (void)pool.rent(InstanceSize::small, 0);
  for (int op = 0; op < 3000; ++op) {
    const auto id = static_cast<VmId>(rng.between(0, 399));
    // Coarse lengths make equal busy times, and so id tie-breaks, common.
    append(pool, id, static_cast<util::Seconds>(rng.between(0, 4)) * 10.0);
    if (op % 7 == 0) {
      EXPECT_NO_THROW((void)pool.reuse_order());
    }
  }
  VmPool::set_index_verification(false);
  expect_index_matches(pool);
}

}  // namespace
}  // namespace cloudwf::cloud
