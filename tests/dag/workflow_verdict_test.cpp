// Workflow::validate() keeps its verdict per workflow state: a passed check
// is not repeated until the workflow changes, a failing one is repeated (and
// throws the same text) every time, copies carry the verdict and a move
// leaves the source with none. obs::Work::workflow_checks counts the calls
// that ran their checks, so each test sees exactly which calls did.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "dag/builders.hpp"
#include "dag/science.hpp"
#include "dag/structure_cache.hpp"
#include "dag/workflow.hpp"
#include "obs/work.hpp"

namespace cloudwf::dag {
namespace {

std::uint64_t checks() { return obs::work_total(obs::Work::workflow_checks); }

/// validate()'s text, or "" when it passes.
std::string verdict(const Workflow& wf) {
  try {
    wf.validate();
  } catch (const std::logic_error& e) {
    return e.what();
  }
  return "";
}

TEST(WorkflowVerdict, PassedCheckIsNotRepeated) {
  const Workflow wf = builders::montage24();  // the builder validated it
  const std::uint64_t before = checks();
  wf.validate();
  wf.validate();
  EXPECT_EQ(checks(), before);
}

TEST(WorkflowVerdict, EveryMutationClearsTheVerdict) {
  Workflow wf = builders::cstem();
  wf.validate();

  const TaskId extra = wf.add_task("extra", 5.0);
  std::uint64_t before = checks();
  wf.validate();
  wf.validate();
  EXPECT_EQ(checks(), before + 1) << "add_task";

  wf.add_edge(0, extra);
  before = checks();
  wf.validate();
  wf.validate();
  EXPECT_EQ(checks(), before + 1) << "add_edge";

  (void)wf.task(extra);  // the mutable accessor, even without a write
  before = checks();
  wf.validate();
  wf.validate();
  EXPECT_EQ(checks(), before + 1) << "mutable task()";
}

TEST(WorkflowVerdict, BreakingAValidatedWorkflowThrowsItsUsualText) {
  Workflow zero_work = builders::map_reduce();
  zero_work.validate();
  zero_work.task(2).work = 0;
  EXPECT_EQ(verdict(zero_work), "workflow '" + zero_work.name() + "': task '" +
                                    zero_work.task(2).name +
                                    "' has non-positive work");

  Workflow renamed = builders::map_reduce();
  renamed.validate();
  const std::string taken = renamed.task(0).name;
  renamed.task(1).name = taken;
  EXPECT_EQ(verdict(renamed), "workflow '" + renamed.name() +
                                  "': duplicate task name '" + taken + "'");
}

TEST(WorkflowVerdict, FailingWorkflowThrowsOnEveryCall) {
  Workflow wf("broken");
  (void)wf.add_task("a", 1.0);
  wf.task(0).work = -1.0;
  const std::string text = "workflow 'broken': task 'a' has non-positive work";
  for (int call = 0; call < 3; ++call) {
    const std::uint64_t before = checks();
    EXPECT_EQ(verdict(wf), text) << "call " << call;
    EXPECT_EQ(checks(), before + 1) << "call " << call;
  }
}

TEST(WorkflowVerdict, CopiesCarryTheVerdictAndMutateOnTheirOwn) {
  const Workflow original = builders::sequential_chain();
  Workflow copy = original;
  std::uint64_t before = checks();
  copy.validate();
  EXPECT_EQ(checks(), before) << "a copy of a validated workflow is validated";

  copy.task(0).work = 0;
  EXPECT_NE(verdict(copy), "");
  before = checks();
  original.validate();
  EXPECT_EQ(checks(), before) << "mutating the copy left the original's verdict";

  Workflow assigned("other");
  assigned = original;
  before = checks();
  assigned.validate();
  EXPECT_EQ(checks(), before) << "copy assignment carries the verdict too";
}

TEST(WorkflowVerdict, MovedFromWorkflowIsEmptyAndChecksAgain) {
  Workflow source = builders::montage24();
  ASSERT_EQ(source.structure()->task_count(), 24u);
  Workflow target = std::move(source);

  // The moved-from state is what this test reads.
  EXPECT_EQ(source.task_count(), 0u);
  EXPECT_EQ(source.structure()->task_count(), 0u);
  EXPECT_EQ(source.structure()->edge_count(), 0u);
  const std::uint64_t before = checks();
  EXPECT_NE(verdict(source).find("is empty"), std::string::npos);
  EXPECT_EQ(checks(), before + 1);

  Workflow reassigned = builders::cstem();
  reassigned = std::move(target);
  EXPECT_EQ(target.structure()->task_count(), 0u);
  EXPECT_NE(verdict(target).find("is empty"), std::string::npos);

  EXPECT_EQ(reassigned.structure()->task_count(), 24u);
  const std::uint64_t moved = checks();
  reassigned.validate();
  EXPECT_EQ(checks(), moved) << "the moved-to workflow keeps the verdict";
}

// Resident workflows are read by many workers at once: each validates,
// asks for the structure cache and copies the workflow. Also run under
// ThreadSanitizer (ctest -L tsan).
TEST(WorkflowConcurrency, SharedWorkflowValidatesAndCopiesFromManyThreads) {
  constexpr int kThreads = 4;
  constexpr int kRounds = 8;
  Workflow wf = science::scaled(science::Family::ligo, 300);
  for (int round = 0; round < kRounds; ++round) {
    wf.task(0).work = 1.0 + round;  // clears the verdict and the cache
    const Workflow& shared = wf;
    std::vector<std::shared_ptr<const StructureCache>> seen(kThreads);
    std::vector<std::size_t> copied_tasks(kThreads, 0);
    std::vector<std::thread> threads;
    for (int i = 0; i < kThreads; ++i) {
      threads.emplace_back([&, i] {
        shared.validate();
        seen[i] = shared.structure();
        const Workflow copy = shared;
        copy.validate();
        copied_tasks[i] = copy.structure()->task_count();
      });
    }
    for (std::thread& t : threads) t.join();

    for (int i = 0; i < kThreads; ++i) {
      EXPECT_EQ(seen[i], seen[0]) << "one cache per workflow state";
      EXPECT_EQ(copied_tasks[i], wf.task_count());
    }
    const std::uint64_t before = checks();
    shared.validate();
    EXPECT_EQ(checks(), before) << "round " << round;
  }
}

}  // namespace
}  // namespace cloudwf::dag
