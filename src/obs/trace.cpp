#include "obs/trace.hpp"

#include <algorithm>
#include <array>
#include <atomic>

namespace cloudwf::obs {

namespace {

// Counter slots (indices into a sink's counters).
enum CounterSlot : std::size_t {
  kEventsRecorded = 0,
  kEventsDropped,
  kVmsRented,
  kVmsReused,
  kBtuExtends,
  kBtusAdded,
  kTasksPlaced,
  kSimEvents,
  kTransfers,
  kUpgradesAccepted,
  kUpgradesRejected,
  kMaxQueueDepth,
  kCounterSlots,
};

std::atomic<std::uint64_t> g_generation{1};
std::atomic<TraceRecorder*> g_recorder{nullptr};
thread_local TraceRecorder* tl_recorder = nullptr;
thread_local int tl_suppressed = 0;

// Per-(thread, recorder) sink cache: generation tags make a stale entry
// (recorder destroyed, another allocated at the same address) detectable.
struct SinkCache {
  std::uint64_t generation = 0;
  void* sink = nullptr;
};
thread_local SinkCache tl_sink_cache;

}  // namespace

std::string_view name_of(EventKind k) noexcept {
  constexpr std::array<std::string_view, kEventKindCount> names = {
      "vm_rent",  "task_place", "decision",    "ready_set", "upgrade",
      "vm_boot",  "task_start", "task_finish", "transfer",  "phase"};
  return names[static_cast<std::size_t>(k)];
}

std::string_view category_of(EventKind k) noexcept {
  switch (k) {
    case EventKind::vm_rent:
    case EventKind::decision:
      return "provisioning";
    case EventKind::task_place:
    case EventKind::ready_set:
    case EventKind::upgrade:
      return "scheduling";
    case EventKind::vm_boot:
    case EventKind::task_start:
    case EventKind::task_finish:
    case EventKind::transfer:
      return "simulation";
    case EventKind::phase:
      return "host";
  }
  return "unknown";
}

/// One thread's ring buffer, counters and phase stats. Only its owning
/// thread writes: the ring and counters without read-modify-write (relaxed
/// load + store), the phase map under `phase_mutex`, which only readers
/// contend for. drain() reads the ring under the registry mutex after the
/// writer quiesced (drains happen at barriers — end of run / end of job —
/// not concurrently with recording on the same sink; `count` is atomic so a
/// racy drain still reads a consistent prefix length). counters() and
/// phase_stats() may run at any time.
struct TraceRecorder::Sink {
  explicit Sink(std::size_t capacity) : ring(capacity) {}

  std::vector<TraceEvent> ring;
  std::atomic<std::size_t> count{0};  ///< total events ever written
  std::array<std::atomic<std::uint64_t>, kCounterSlots> counters{};
  std::mutex phase_mutex;
  std::map<std::string, PhaseStat, std::less<>> phases;

  void add(CounterSlot slot, std::uint64_t n) noexcept {
    std::atomic<std::uint64_t>& c = counters[slot];
    c.store(c.load(std::memory_order_relaxed) + n, std::memory_order_relaxed);
  }

  /// The counter updates of one event (see TraceRecorder::count).
  void tally(EventKind kind, bool flag, double value) noexcept {
    add(kEventsRecorded, 1);
    switch (kind) {
      case EventKind::vm_rent:
        add(kVmsRented, 1);
        break;
      case EventKind::task_place: {
        add(kTasksPlaced, 1);
        if (flag) add(kVmsReused, 1);
        const auto delta = static_cast<std::uint64_t>(value);
        if (delta > 0) {
          add(kBtusAdded, delta);
          if (flag) add(kBtuExtends, 1);
        }
        break;
      }
      case EventKind::task_finish:
        add(kSimEvents, 1);
        break;
      case EventKind::transfer:
        add(kTransfers, 1);
        break;
      case EventKind::upgrade:
        add(flag ? kUpgradesAccepted : kUpgradesRejected, 1);
        break;
      default:
        break;
    }
  }
};

TraceRecorder::TraceRecorder(std::size_t ring_capacity)
    : ring_capacity_(ring_capacity),
      generation_(g_generation.fetch_add(1, std::memory_order_relaxed)),
      birth_(std::chrono::steady_clock::now()) {}

TraceRecorder::~TraceRecorder() {
  // Unhook from the global slot if still installed (defensive; owners
  // normally clear it themselves).
  TraceRecorder* self = this;
  g_recorder.compare_exchange_strong(self, nullptr);
}

TraceRecorder::Sink& TraceRecorder::sink_for_this_thread() {
  if (tl_sink_cache.generation == generation_)
    return *static_cast<Sink*>(tl_sink_cache.sink);
  std::lock_guard lock(registry_mutex_);
  sinks_.push_back(std::make_unique<Sink>(ring_capacity_));
  Sink& sink = *sinks_.back();
  tl_sink_cache = {generation_, &sink};
  return sink;
}

void TraceRecorder::count(EventKind kind, bool flag, double value) {
  sink_for_this_thread().tally(kind, flag, value);
}

void TraceRecorder::record(TraceEvent ev) {
  const bool flag =
      (ev.kind == EventKind::task_place && ev.detail == "reuse") ||
      (ev.kind == EventKind::upgrade && ev.detail.rfind("accept", 0) == 0);
  Sink& sink = sink_for_this_thread();
  sink.tally(ev.kind, flag, ev.value);
  if (ring_capacity_ == 0) return;

  const std::size_t n = sink.count.load(std::memory_order_relaxed);
  if (n >= ring_capacity_) sink.add(kEventsDropped, 1);
  sink.ring[n % ring_capacity_] = std::move(ev);
  sink.count.store(n + 1, std::memory_order_release);
}

void TraceRecorder::note_queue_depth(std::size_t depth) {
  std::atomic<std::uint64_t>& peak =
      sink_for_this_thread().counters[kMaxQueueDepth];
  const auto d = static_cast<std::uint64_t>(depth);
  if (d > peak.load(std::memory_order_relaxed))
    peak.store(d, std::memory_order_relaxed);
}

void TraceRecorder::record_phase(std::string_view name, double begin_s,
                                 double end_s) {
  const double dur = end_s - begin_s;
  Sink& sink = sink_for_this_thread();
  {
    std::lock_guard lock(sink.phase_mutex);
    auto it = sink.phases.find(name);
    if (it == sink.phases.end())
      it = sink.phases.emplace(std::string(name), PhaseStat{}).first;
    PhaseStat& stat = it->second;
    if (stat.count == 0) {
      stat.min = dur;
      stat.max = dur;
    } else {
      stat.min = std::min(stat.min, dur);
      stat.max = std::max(stat.max, dur);
    }
    ++stat.count;
    stat.total += dur;
  }
  if (ring_capacity_ == 0)
    sink.tally(EventKind::phase, false, 0);
  else
    record({begin_s, dur, EventKind::phase, kNoId, kNoId, 0, std::string(name)});
}

std::vector<TraceEvent> TraceRecorder::drain() const {
  struct Tagged {
    const TraceEvent* ev;
    std::size_t sink_index;
    std::size_t seq;
  };
  std::vector<Tagged> tagged;
  {
    std::lock_guard lock(registry_mutex_);
    for (std::size_t s = 0; s < sinks_.size(); ++s) {
      const Sink& sink = *sinks_[s];
      const std::size_t n = sink.count.load(std::memory_order_acquire);
      const std::size_t kept = std::min(n, ring_capacity_);
      // Oldest kept event first: the ring holds [n - kept, n).
      for (std::size_t i = 0; i < kept; ++i) {
        const std::size_t seq = n - kept + i;
        tagged.push_back({&sink.ring[seq % ring_capacity_], s, seq});
      }
    }
    std::stable_sort(tagged.begin(), tagged.end(),
                     [](const Tagged& a, const Tagged& b) {
                       if (a.ev->ts != b.ev->ts) return a.ev->ts < b.ev->ts;
                       if (a.sink_index != b.sink_index)
                         return a.sink_index < b.sink_index;
                       return a.seq < b.seq;
                     });
    std::vector<TraceEvent> out;
    out.reserve(tagged.size());
    for (const Tagged& t : tagged) out.push_back(*t.ev);
    return out;
  }
}

CounterSnapshot TraceRecorder::counters() const {
  std::array<std::uint64_t, kCounterSlots> merged{};
  {
    std::lock_guard lock(registry_mutex_);
    for (const auto& sink : sinks_)
      for (std::size_t i = 0; i < kCounterSlots; ++i) {
        const std::uint64_t v =
            sink->counters[i].load(std::memory_order_relaxed);
        merged[i] = i == kMaxQueueDepth ? std::max(merged[i], v) : merged[i] + v;
      }
  }
  CounterSnapshot s;
  s.events_recorded = merged[kEventsRecorded];
  s.events_dropped = merged[kEventsDropped];
  s.vms_rented = merged[kVmsRented];
  s.vms_reused = merged[kVmsReused];
  s.btu_extends = merged[kBtuExtends];
  s.btus_added = merged[kBtusAdded];
  s.tasks_placed = merged[kTasksPlaced];
  s.sim_events = merged[kSimEvents];
  s.transfers = merged[kTransfers];
  s.upgrades_accepted = merged[kUpgradesAccepted];
  s.upgrades_rejected = merged[kUpgradesRejected];
  s.max_queue_depth = merged[kMaxQueueDepth];
  return s;
}

std::map<std::string, PhaseStat> TraceRecorder::phase_stats() const {
  std::map<std::string, PhaseStat> merged;
  std::lock_guard lock(registry_mutex_);
  for (const auto& sink : sinks_) {
    std::lock_guard phase_lock(sink->phase_mutex);
    for (const auto& [name, stat] : sink->phases) {
      PhaseStat& into = merged[name];
      if (into.count == 0) {
        into = stat;
        continue;
      }
      into.count += stat.count;
      into.total += stat.total;
      into.min = std::min(into.min, stat.min);
      into.max = std::max(into.max, stat.max);
    }
  }
  return merged;
}

double TraceRecorder::elapsed() const noexcept {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - birth_)
      .count();
}

void set_global_recorder(TraceRecorder* recorder) noexcept {
  g_recorder.store(recorder, std::memory_order_release);
}

TraceRecorder* current_recorder() noexcept {
  if (tl_suppressed > 0) return nullptr;
  if (TraceRecorder* r = tl_recorder) return r;
  return g_recorder.load(std::memory_order_acquire);
}

ScopedRecording::ScopedRecording(TraceRecorder& recorder) noexcept
    : previous_(tl_recorder) {
  tl_recorder = &recorder;
}

ScopedRecording::~ScopedRecording() { tl_recorder = previous_; }

SuppressRecording::SuppressRecording() noexcept { ++tl_suppressed; }

SuppressRecording::~SuppressRecording() { --tl_suppressed; }

PhaseScope::PhaseScope(std::string_view name) noexcept
    : recorder_(current_recorder()) {
  if (recorder_ == nullptr) return;
  begin_ = recorder_->elapsed();
  name_ = name;
}

PhaseScope::PhaseScope(std::string_view prefix, std::string_view label) noexcept
    : recorder_(current_recorder()) {
  if (recorder_ == nullptr) return;
  begin_ = recorder_->elapsed();
  name_.reserve(prefix.size() + label.size());
  name_.append(prefix).append(label);
}

PhaseScope::~PhaseScope() {
  if (recorder_ == nullptr) return;
  recorder_->record_phase(name_, begin_, recorder_->elapsed());
}

}  // namespace cloudwf::obs
