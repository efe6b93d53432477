// Exact work counters: thread-local adds, merged on read — including the
// adds of threads that have already exited.
#include "obs/work.hpp"

#include <gtest/gtest.h>

#include <thread>
#include <vector>

namespace cloudwf::obs {
namespace {

TEST(WorkCounters, MergeEveryThreadOnRead) {
  const std::uint64_t before = work_total(Work::reuse_vms_examined);
  std::vector<std::thread> threads;
  for (int i = 0; i < 4; ++i)
    threads.emplace_back([] {
      for (int k = 0; k < 1000; ++k) add_work(Work::reuse_vms_examined, 3);
    });
  add_work(Work::reuse_vms_examined, 5);
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(work_total(Work::reuse_vms_examined) - before, 4u * 3000u + 5u);
}

TEST(WorkCounters, CountersAreIndependentAndNamed) {
  const std::uint64_t moved = work_total(Work::reuse_slots_moved);
  add_work(Work::reuse_vms_examined, 7);
  EXPECT_EQ(work_total(Work::reuse_slots_moved), moved);
  EXPECT_EQ(name_of(Work::reuse_slots_moved), "reuse_slots_moved");
  EXPECT_EQ(name_of(Work::reuse_vms_examined), "reuse_vms_examined");
  EXPECT_EQ(name_of(Work::workflow_checks), "workflow_checks");
}

}  // namespace
}  // namespace cloudwf::obs
