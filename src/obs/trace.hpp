// Structured simulation tracing & metrics (the observability subsystem).
//
// A TraceRecorder captures typed events from the provisioning policies
// (rent/reuse/BTU decisions), the schedulers (placements, ready sets,
// upgrade moves) and the event-driven replay (boot/start/finish/transfer),
// each with a timestamp, a category and a structured payload, plus
// lightweight counters and per-phase wall-clock timings. A recorder built
// with no ring capacity keeps only the counters and phase stats: the
// service's /stats needs nothing more, so it never pays for payloads.
//
// Design constraints, in order:
//
//  1. **Zero cost when disabled.** Nothing is recorded unless a recorder is
//     installed (thread-locally via ScopedRecording, or process-wide via
//     set_global_recorder). Every emit helper first loads the current
//     recorder pointer and returns on nullptr — one thread-local read, one
//     relaxed atomic load and two predictable branches; no payload is even
//     constructed. bench_trace_overhead pins this under 2% on the Fig. 4
//     sweep.
//  2. **No serialization across sweep workers.** Each recording thread gets
//     its own sink (registered once under a mutex): a fixed-capacity event
//     ring, the counters and the phase stats. The owner writes its ring and
//     counters without read-modify-write; its phase map sits behind a mutex
//     only readers ever contend for. Readers merge every sink. The parallel
//     sweep engine (exp/parallel.hpp) can run with one shared global
//     recorder without its workers contending on a lock.
//  3. **Deterministic drains.** drain() merges the per-thread rings with a
//     stable sort on (timestamp, sink registration order, per-sink
//     sequence), so a single-threaded run replays to an identical stream
//     every time — the golden trace test depends on this.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

namespace cloudwf::obs {

/// Sentinel for "no task / no VM attached to this event".
inline constexpr std::uint64_t kNoId = ~std::uint64_t{0};

enum class EventKind : std::uint8_t {
  vm_rent = 0,     ///< provisioning — a fresh VM joined the pool
  task_place = 1,  ///< scheduling — task assigned to a VM over [ts, ts+dur)
  decision = 2,    ///< provisioning — a policy's reuse/rent reasoning
  ready_set = 3,   ///< scheduling — a ready set / level was formed
  upgrade = 4,     ///< scheduling — a dynamic algorithm's resize attempt
  vm_boot = 5,     ///< simulation — VM boots over [ts, ts+dur)
  task_start = 6,  ///< simulation — replay started a task
  task_finish = 7, ///< simulation — replay finished a task
  transfer = 8,    ///< simulation — output data shipped to a successor
  phase = 9,       ///< host — wall-clock span of a named phase
};
inline constexpr std::size_t kEventKindCount = 10;

[[nodiscard]] std::string_view name_of(EventKind k) noexcept;

/// Category in the Chrome-trace sense: which lane of the system produced
/// the event ("provisioning", "scheduling", "simulation" or "host").
[[nodiscard]] std::string_view category_of(EventKind k) noexcept;

/// One captured event. `ts`/`dur` are simulation seconds for everything
/// except `phase`, whose times are wall-clock seconds since the recorder
/// was created. `value` is kind-dependent: BTU delta for task_place, set
/// size for ready_set, target-size index for upgrade, transferred GB for
/// transfer. `detail` is a short human-readable annotation (policy
/// reasoning, phase name, accept/reject).
struct TraceEvent {
  double ts = 0;
  double dur = 0;
  EventKind kind = EventKind::decision;
  std::uint64_t task = kNoId;
  std::uint64_t vm = kNoId;
  double value = 0;
  std::string detail;
};

/// Point-in-time view of a recorder's counters.
struct CounterSnapshot {
  std::uint64_t events_recorded = 0;  ///< total record() calls
  std::uint64_t events_dropped = 0;   ///< ring overwrites (oldest lost)
  std::uint64_t vms_rented = 0;       ///< vm_rent events
  std::uint64_t vms_reused = 0;       ///< task_place on an already-used VM
  std::uint64_t btu_extends = 0;      ///< reuses that grew the VM's BTUs
  std::uint64_t btus_added = 0;       ///< sum of task_place BTU deltas
  std::uint64_t tasks_placed = 0;     ///< task_place events
  std::uint64_t sim_events = 0;       ///< replay finish events processed
  std::uint64_t transfers = 0;        ///< transfer events
  std::uint64_t upgrades_accepted = 0;
  std::uint64_t upgrades_rejected = 0;
  std::uint64_t max_queue_depth = 0;  ///< replay event-queue high-water mark
};

/// min/sum/max wall-clock seconds of one named phase.
struct PhaseStat {
  std::uint64_t count = 0;
  double total = 0;
  double min = 0;
  double max = 0;
};

class TraceRecorder {
 public:
  /// `ring_capacity` bounds each recording thread's buffered events; once
  /// full the oldest event is overwritten (and counted as dropped), keeping
  /// memory bounded on arbitrarily long runs. 0 keeps no events at all:
  /// the counters and phase stats still fill, drain() stays empty and no
  /// event is ever dropped.
  explicit TraceRecorder(std::size_t ring_capacity = 1 << 16);
  ~TraceRecorder();

  TraceRecorder(const TraceRecorder&) = delete;
  TraceRecorder& operator=(const TraceRecorder&) = delete;

  /// False for a count-only recorder: emit sites then build no payload.
  [[nodiscard]] bool keeps_events() const noexcept { return ring_capacity_ != 0; }

  /// Appends `ev` to the calling thread's ring and updates the counters.
  /// Lock-free after the thread's first call (sink registration).
  void record(TraceEvent ev);

  /// Updates the counters exactly as record() would for an event of `kind`,
  /// keeping nothing. `flag` is task_place's reuse flag or upgrade's
  /// acceptance; `value` is the event's value (task_place: BTUs added).
  void count(EventKind kind, bool flag, double value);

  /// Records the replay event-queue depth high-water mark (counter only).
  void note_queue_depth(std::size_t depth);

  /// Folds a finished phase span into the per-phase stats and records a
  /// phase event (ts = seconds since recorder creation).
  void record_phase(std::string_view name, double begin_s, double end_s);

  /// Merged view of every thread's buffered events, stable-sorted by
  /// (ts, sink registration order, per-sink sequence). Non-destructive.
  [[nodiscard]] std::vector<TraceEvent> drain() const;

  /// Every thread's counters, summed (max_queue_depth: the maximum).
  [[nodiscard]] CounterSnapshot counters() const;

  /// Per-phase wall-clock stats, keyed by phase name, merged over threads.
  [[nodiscard]] std::map<std::string, PhaseStat> phase_stats() const;

  /// Wall-clock seconds since this recorder was constructed.
  [[nodiscard]] double elapsed() const noexcept;

  /// Process-unique id; lets a thread-local sink cache detect that "the
  /// recorder at this address" is not the one it registered with.
  [[nodiscard]] std::uint64_t generation() const noexcept { return generation_; }

 private:
  struct Sink;
  [[nodiscard]] Sink& sink_for_this_thread();

  const std::size_t ring_capacity_;
  const std::uint64_t generation_;
  const std::chrono::steady_clock::time_point birth_;

  mutable std::mutex registry_mutex_;
  std::vector<std::unique_ptr<Sink>> sinks_;
};

/// Installs/clears the process-wide recorder every thread falls back to
/// when it has no thread-local one. Pass nullptr to disable.
void set_global_recorder(TraceRecorder* recorder) noexcept;

/// The recorder the calling thread should record to: its thread-local
/// override if any, else the global one, else nullptr (tracing disabled).
[[nodiscard]] TraceRecorder* current_recorder() noexcept;

[[nodiscard]] inline bool enabled() noexcept {
  return current_recorder() != nullptr;
}

/// Scoped thread-local install: tracing is enabled on this thread for the
/// scope's lifetime (nesting restores the previous recorder).
class ScopedRecording {
 public:
  explicit ScopedRecording(TraceRecorder& recorder) noexcept;
  ~ScopedRecording();

  ScopedRecording(const ScopedRecording&) = delete;
  ScopedRecording& operator=(const ScopedRecording&) = delete;

 private:
  TraceRecorder* previous_;
};

/// Scoped thread-local suppression: tracing is disabled on this thread for
/// the scope's lifetime, overriding both the thread-local and the global
/// recorder (nests; inner scopes are no-ops). Used around internal scratch
/// work — e.g. the upgrade schedulers' candidate retimes — whose rent/place
/// calls are search effort, not schedule construction, and would otherwise
/// distort the counters the metrics-agreement tests certify.
class SuppressRecording {
 public:
  SuppressRecording() noexcept;
  ~SuppressRecording();

  SuppressRecording(const SuppressRecording&) = delete;
  SuppressRecording& operator=(const SuppressRecording&) = delete;
};

/// RAII wall-clock span: emits a `phase` event (and folds the duration into
/// the recorder's phase stats) when destroyed. Free when tracing is off —
/// the constructor captures nullptr and the destructor takes one branch.
class PhaseScope {
 public:
  explicit PhaseScope(std::string_view name) noexcept;
  /// The phase named `prefix` + `label`, joined only when a recorder is
  /// installed.
  PhaseScope(std::string_view prefix, std::string_view label) noexcept;
  ~PhaseScope();

  PhaseScope(const PhaseScope&) = delete;
  PhaseScope& operator=(const PhaseScope&) = delete;

 private:
  TraceRecorder* recorder_;
  double begin_ = 0;
  std::string name_;
};

// ---------------------------------------------------------------------------
// Emit helpers — the instrumentation surface. Each checks for a recorder
// FIRST, and builds the payload only when that recorder keeps events, so a
// disabled call site costs a pointer load and a branch and never touches
// the arguments, and a count-only recorder never sees a payload.

/// Records the event `make()` returns when the current recorder keeps
/// events; otherwise only counts it (see TraceRecorder::count).
template <class Make>
inline void emit_event(EventKind kind, bool flag, double value, Make&& make) {
  if (TraceRecorder* r = current_recorder()) {
    if (r->keeps_events())
      r->record(std::forward<Make>(make)());
    else
      r->count(kind, flag, value);
  }
}

/// A detail argument's text: the text itself, or what a callable returns
/// (call sites that build their text pass a callable, run only when kept).
template <class Detail>
[[nodiscard]] std::string detail_text(Detail&& detail) {
  if constexpr (std::is_invocable_v<Detail>)
    return std::forward<Detail>(detail)();
  else
    return std::string(std::string_view(detail));
}

template <class Detail>
inline void emit_vm_rent(std::uint64_t vm, double ts, Detail&& detail) {
  emit_event(EventKind::vm_rent, false, 0, [&] {
    return TraceEvent{ts, 0, EventKind::vm_rent, kNoId, vm, 0,
                      detail_text(std::forward<Detail>(detail))};
  });
}

/// `reused` marks a placement on a VM that already held a task; `btu_delta`
/// is how many BTUs the placement added to the VM's sessions.
inline void emit_task_place(std::uint64_t task, std::uint64_t vm, double start,
                            double end, bool reused, double btu_delta) {
  emit_event(EventKind::task_place, reused, btu_delta, [&] {
    return TraceEvent{start, end - start, EventKind::task_place, task, vm,
                      btu_delta, reused ? "reuse" : "fresh"};
  });
}

inline void emit_decision(std::uint64_t task, std::uint64_t vm, double ts,
                          std::string_view detail) {
  emit_event(EventKind::decision, false, 0, [&] {
    return TraceEvent{ts, 0, EventKind::decision, task, vm, 0,
                      std::string(detail)};
  });
}

template <class Detail>
inline void emit_ready_set(std::size_t size, Detail&& detail) {
  emit_event(EventKind::ready_set, false, 0, [&] {
    return TraceEvent{0, 0, EventKind::ready_set, kNoId, kNoId,
                      static_cast<double>(size),
                      detail_text(std::forward<Detail>(detail))};
  });
}

inline void emit_upgrade(std::uint64_t task, bool accepted, double value,
                         std::string_view detail) {
  emit_event(EventKind::upgrade, accepted, value, [&] {
    return TraceEvent{0, 0, EventKind::upgrade, task, kNoId, value,
                      (accepted ? "accept: " : "reject: ") + std::string(detail)};
  });
}

inline void emit_vm_boot(std::uint64_t vm, double boot_time) {
  emit_event(EventKind::vm_boot, false, 0, [&] {
    return TraceEvent{0, boot_time, EventKind::vm_boot, kNoId, vm, 0, {}};
  });
}

inline void emit_task_start(std::uint64_t task, std::uint64_t vm, double ts) {
  emit_event(EventKind::task_start, false, 0, [&] {
    return TraceEvent{ts, 0, EventKind::task_start, task, vm, 0, {}};
  });
}

inline void emit_task_finish(std::uint64_t task, std::uint64_t vm, double ts) {
  emit_event(EventKind::task_finish, false, 0, [&] {
    return TraceEvent{ts, 0, EventKind::task_finish, task, vm, 0, {}};
  });
}

inline void emit_transfer(std::uint64_t from_task, std::uint64_t to_task,
                          double ts, double dur, double gigabytes) {
  emit_event(EventKind::transfer, false, gigabytes, [&] {
    return TraceEvent{ts, dur, EventKind::transfer, to_task, kNoId, gigabytes,
                      "from task " + std::to_string(from_task)};
  });
}

inline void note_queue_depth(std::size_t depth) {
  if (TraceRecorder* r = current_recorder()) r->note_queue_depth(depth);
}

}  // namespace cloudwf::obs
