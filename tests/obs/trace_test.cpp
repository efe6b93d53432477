// TraceRecorder unit + concurrency tests: ring semantics, counters, scoped
// and global installation, phase stats, and the lock-free per-thread sinks
// under a real worker pool (this binary carries the tsan ctest label).
#include <gtest/gtest.h>

#include <atomic>
#include <future>
#include <memory>
#include <thread>
#include <vector>

#include "exp/catalog.hpp"
#include "exp/experiment.hpp"
#include "obs/trace.hpp"
#include "util/thread_pool.hpp"

namespace cloudwf::obs {
namespace {

TEST(TraceRecorder, DisabledByDefaultAndEmitsAreNoOps) {
  EXPECT_FALSE(enabled());
  EXPECT_EQ(current_recorder(), nullptr);
  // Emit helpers must be safe without a recorder.
  emit_vm_rent(1, 0, "s");
  emit_task_place(1, 1, 0, 10, false, 1);
  emit_task_start(1, 1, 0);
  note_queue_depth(5);
}

TEST(TraceRecorder, ScopedRecordingInstallsAndRestores) {
  TraceRecorder recorder;
  {
    ScopedRecording recording(recorder);
    EXPECT_EQ(current_recorder(), &recorder);
    {
      TraceRecorder inner;
      ScopedRecording nested(inner);
      EXPECT_EQ(current_recorder(), &inner);
    }
    EXPECT_EQ(current_recorder(), &recorder);
  }
  EXPECT_EQ(current_recorder(), nullptr);
}

TEST(TraceRecorder, RecordsEventsInOrder) {
  TraceRecorder recorder;
  ScopedRecording recording(recorder);
  emit_vm_rent(0, 0, "s");
  emit_task_place(7, 0, 0, 100, false, 1);
  emit_task_place(8, 0, 100, 250, true, 0);

  const std::vector<TraceEvent> events = recorder.drain();
  ASSERT_EQ(events.size(), 3u);
  EXPECT_EQ(events[0].kind, EventKind::vm_rent);
  EXPECT_EQ(events[1].kind, EventKind::task_place);
  EXPECT_EQ(events[1].task, 7u);
  EXPECT_EQ(events[1].detail, "fresh");
  EXPECT_EQ(events[2].detail, "reuse");
  EXPECT_DOUBLE_EQ(events[2].ts, 100.0);
  EXPECT_DOUBLE_EQ(events[2].dur, 150.0);
}

TEST(TraceRecorder, DrainSortsByTimestampStably) {
  TraceRecorder recorder;
  ScopedRecording recording(recorder);
  emit_task_start(1, 0, 50.0);
  emit_task_start(2, 0, 10.0);
  emit_task_finish(3, 0, 10.0);  // same ts as previous: emission order wins

  const std::vector<TraceEvent> events = recorder.drain();
  ASSERT_EQ(events.size(), 3u);
  EXPECT_EQ(events[0].task, 2u);
  EXPECT_EQ(events[1].task, 3u);
  EXPECT_EQ(events[2].task, 1u);
}

TEST(TraceRecorder, RingKeepsNewestAndCountsDrops) {
  TraceRecorder recorder(4);
  ScopedRecording recording(recorder);
  for (int i = 0; i < 10; ++i)
    emit_task_start(static_cast<std::uint64_t>(i), 0, i);

  const std::vector<TraceEvent> events = recorder.drain();
  ASSERT_EQ(events.size(), 4u);
  EXPECT_EQ(events.front().task, 6u);
  EXPECT_EQ(events.back().task, 9u);
  const CounterSnapshot c = recorder.counters();
  EXPECT_EQ(c.events_recorded, 10u);
  EXPECT_EQ(c.events_dropped, 6u);
}

TEST(TraceRecorder, CountersFollowEventSemantics) {
  TraceRecorder recorder;
  ScopedRecording recording(recorder);
  emit_vm_rent(0, 0, "s");
  emit_vm_rent(1, 0, "s");
  emit_task_place(0, 0, 0, 10, false, 1);   // fresh, first BTU
  emit_task_place(1, 0, 10, 20, true, 0);   // reuse inside the paid window
  emit_task_place(2, 0, 20, 4000, true, 2); // reuse extending the session
  emit_task_finish(0, 0, 10);
  emit_transfer(0, 1, 10, 5, 0.5);
  emit_upgrade(3, true, 1, "test");
  emit_upgrade(3, false, 2, "test");
  note_queue_depth(7);
  note_queue_depth(3);

  const CounterSnapshot c = recorder.counters();
  EXPECT_EQ(c.vms_rented, 2u);
  EXPECT_EQ(c.tasks_placed, 3u);
  EXPECT_EQ(c.vms_reused, 2u);
  EXPECT_EQ(c.btu_extends, 1u);
  EXPECT_EQ(c.btus_added, 3u);
  EXPECT_EQ(c.sim_events, 1u);
  EXPECT_EQ(c.transfers, 1u);
  EXPECT_EQ(c.upgrades_accepted, 1u);
  EXPECT_EQ(c.upgrades_rejected, 1u);
  EXPECT_EQ(c.max_queue_depth, 7u);
}

TEST(TraceRecorder, GlobalRecorderReachesOtherThreads) {
  TraceRecorder recorder;
  set_global_recorder(&recorder);
  std::thread worker([] { emit_task_start(42, 0, 1.0); });
  worker.join();
  set_global_recorder(nullptr);

  const std::vector<TraceEvent> events = recorder.drain();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].task, 42u);
  EXPECT_FALSE(enabled());
}

TEST(TraceRecorder, ThreadLocalOverridesGlobal) {
  TraceRecorder global_rec;
  TraceRecorder local_rec;
  set_global_recorder(&global_rec);
  {
    ScopedRecording recording(local_rec);
    emit_task_start(1, 0, 0);
  }
  emit_task_start(2, 0, 0);
  set_global_recorder(nullptr);
  EXPECT_EQ(local_rec.drain().size(), 1u);
  EXPECT_EQ(global_rec.drain().size(), 1u);
}

TEST(TraceRecorder, PhaseScopeRecordsStatsAndEvent) {
  TraceRecorder recorder;
  {
    ScopedRecording recording(recorder);
    { PhaseScope phase("unit-test phase"); }
    { PhaseScope phase("unit-test phase"); }
  }
  const auto stats = recorder.phase_stats();
  ASSERT_EQ(stats.count("unit-test phase"), 1u);
  EXPECT_EQ(stats.at("unit-test phase").count, 2u);
  EXPECT_GE(stats.at("unit-test phase").total, 0.0);

  std::size_t phase_events = 0;
  for (const TraceEvent& ev : recorder.drain())
    if (ev.kind == EventKind::phase) ++phase_events;
  EXPECT_EQ(phase_events, 2u);
}

TEST(TraceRecorder, PhaseScopeIsANoOpWhenDisabled) {
  PhaseScope phase("never recorded");
  EXPECT_FALSE(enabled());
}

TEST(TraceRecorder, PhaseScopeJoinsPrefixAndLabel) {
  TraceRecorder recorder;
  {
    ScopedRecording recording(recorder);
    PhaseScope phase("run: ", "GAIN");
  }
  EXPECT_EQ(recorder.phase_stats().count("run: GAIN"), 1u);
}

// A recorder with no ring capacity keeps the counters and phase stats of a
// ring-keeping one, event for event, and keeps no event.
TEST(TraceRecorder, CountOnlyRecorderCountsWhatARingKeepingOneCounts) {
  const exp::ExperimentRunner runner;
  for (const char* name : {"montage", "cybershake:300"}) {
    const auto structure =
        exp::catalog::workflow(name, exp::catalog::kMaxServedTasks);
    const auto run_all = [&](TraceRecorder& recorder) {
      ScopedRecording recording(recorder);
      return runner.run_all(*structure, workload::ScenarioKind::pareto,
                            exp::ParallelConfig::serial());
    };
    TraceRecorder ring;
    TraceRecorder count_only(0);
    EXPECT_TRUE(ring.keeps_events());
    EXPECT_FALSE(count_only.keeps_events());
    (void)run_all(ring);
    (void)run_all(count_only);

    const CounterSnapshot want = ring.counters();
    const CounterSnapshot got = count_only.counters();
    EXPECT_GT(want.events_recorded, 0u) << name;
    EXPECT_EQ(got.events_recorded, want.events_recorded) << name;
    EXPECT_EQ(got.events_dropped, 0u) << name;
    EXPECT_EQ(got.vms_rented, want.vms_rented) << name;
    EXPECT_EQ(got.vms_reused, want.vms_reused) << name;
    EXPECT_EQ(got.btu_extends, want.btu_extends) << name;
    EXPECT_EQ(got.btus_added, want.btus_added) << name;
    EXPECT_EQ(got.tasks_placed, want.tasks_placed) << name;
    EXPECT_EQ(got.sim_events, want.sim_events) << name;
    EXPECT_EQ(got.transfers, want.transfers) << name;
    EXPECT_EQ(got.upgrades_accepted, want.upgrades_accepted) << name;
    EXPECT_EQ(got.upgrades_rejected, want.upgrades_rejected) << name;
    EXPECT_EQ(got.max_queue_depth, want.max_queue_depth) << name;

    const auto want_phases = ring.phase_stats();
    const auto got_phases = count_only.phase_stats();
    ASSERT_EQ(got_phases.size(), want_phases.size()) << name;
    for (auto w = want_phases.begin(), g = got_phases.begin();
         w != want_phases.end(); ++w, ++g) {
      EXPECT_EQ(g->first, w->first) << name;
      EXPECT_EQ(g->second.count, w->second.count) << name << " " << w->first;
    }
    EXPECT_TRUE(count_only.drain().empty()) << name;
  }
}

// The concurrency certification: many pool workers record into ONE shared
// recorder through the global hook, each getting its own lock-free sink.
// Run under TSan via `ctest -L tsan` (this whole binary carries the label).
TEST(TraceRecorderConcurrency, SharedRecorderAcrossPoolWorkers) {
  constexpr std::size_t kThreads = 4;
  constexpr std::size_t kJobs = 64;
  constexpr std::size_t kEventsPerJob = 500;

  TraceRecorder recorder(kJobs * kEventsPerJob);
  set_global_recorder(&recorder);
  {
    util::ThreadPool pool(kThreads);
    std::vector<std::future<void>> futures;
    futures.reserve(kJobs);
    for (std::size_t j = 0; j < kJobs; ++j) {
      futures.push_back(pool.submit([j] {
        for (std::size_t i = 0; i < kEventsPerJob; ++i) {
          emit_task_start(j * kEventsPerJob + i, j, static_cast<double>(i));
          note_queue_depth(i);
        }
      }));
    }
    for (auto& f : futures) f.get();
  }
  set_global_recorder(nullptr);

  const CounterSnapshot c = recorder.counters();
  EXPECT_EQ(c.events_recorded, kJobs * kEventsPerJob);
  EXPECT_EQ(c.events_dropped, 0u);
  EXPECT_EQ(c.max_queue_depth, kEventsPerJob - 1);
  EXPECT_EQ(recorder.drain().size(), kJobs * kEventsPerJob);
}

// The service's pattern: one count-only recorder shared by pool workers
// that place, finish and time phases while a reader polls the merged
// counters and phase stats, as /stats does.
TEST(TraceRecorderConcurrency, CountOnlyRecorderMergesWhileWorkersRecord) {
  constexpr std::size_t kJobs = 32;
  constexpr std::size_t kEventsPerJob = 400;

  TraceRecorder recorder(0);
  set_global_recorder(&recorder);
  std::atomic<bool> done{false};
  std::thread reader([&] {
    while (!done.load(std::memory_order_acquire)) {
      (void)recorder.counters();
      (void)recorder.phase_stats();
    }
  });
  {
    util::ThreadPool pool(4);
    std::vector<std::future<void>> futures;
    futures.reserve(kJobs);
    for (std::size_t j = 0; j < kJobs; ++j) {
      futures.push_back(pool.submit([j] {
        PhaseScope phase("job");
        for (std::size_t i = 0; i < kEventsPerJob; ++i) {
          emit_task_place(i, j, 0, 1, i % 2 == 1, 1);
          note_queue_depth(i);
        }
      }));
    }
    for (auto& f : futures) f.get();
  }
  done.store(true, std::memory_order_release);
  reader.join();
  set_global_recorder(nullptr);

  const CounterSnapshot c = recorder.counters();
  EXPECT_EQ(c.tasks_placed, kJobs * kEventsPerJob);
  EXPECT_EQ(c.vms_reused, kJobs * kEventsPerJob / 2);
  EXPECT_EQ(c.btus_added, kJobs * kEventsPerJob);
  EXPECT_EQ(c.events_recorded, kJobs * kEventsPerJob + kJobs);  // + phases
  EXPECT_EQ(c.max_queue_depth, kEventsPerJob - 1);
  EXPECT_EQ(recorder.phase_stats().at("job").count, kJobs);
  EXPECT_TRUE(recorder.drain().empty());
}

// Per-job private recorders on concurrent workers: the thread-local install
// must isolate streams job-by-job (the parallel sweep composition pattern).
TEST(TraceRecorderConcurrency, PerJobScopedRecordersStayIsolated) {
  constexpr std::size_t kJobs = 32;
  std::vector<std::unique_ptr<TraceRecorder>> recorders;
  recorders.reserve(kJobs);
  for (std::size_t j = 0; j < kJobs; ++j)
    recorders.push_back(std::make_unique<TraceRecorder>());

  {
    util::ThreadPool pool(4);
    std::vector<std::future<void>> futures;
    futures.reserve(kJobs);
    for (std::size_t j = 0; j < kJobs; ++j) {
      futures.push_back(pool.submit([&recorders, j] {
        ScopedRecording recording(*recorders[j]);
        for (std::size_t i = 0; i <= j; ++i)
          emit_task_start(i, j, static_cast<double>(i));
      }));
    }
    for (auto& f : futures) f.get();
  }

  for (std::size_t j = 0; j < kJobs; ++j) {
    const std::vector<TraceEvent> events = recorders[j]->drain();
    ASSERT_EQ(events.size(), j + 1) << "job " << j;
    for (const TraceEvent& ev : events) EXPECT_EQ(ev.vm, j);
  }
}

}  // namespace
}  // namespace cloudwf::obs
