#include "obs/work.hpp"

#include <algorithm>
#include <array>
#include <atomic>
#include <mutex>
#include <vector>

namespace cloudwf::obs {

namespace {

using Slots = std::array<std::atomic<std::uint64_t>, kWorkCount>;

struct Registry {
  std::mutex mutex;
  std::vector<const Slots*> live;
  std::array<std::uint64_t, kWorkCount> retired{};
};

// Never destroyed: thread-local blocks of threads that outlive static
// destruction (the main thread's among them) still fold into it.
Registry& registry() {
  static Registry* r = new Registry;
  return *r;
}

/// One thread's counters. Only the owner writes them (relaxed load + store,
/// no read-modify-write); readers merge them under the registry lock.
struct ThreadBlock {
  Slots slots{};

  ThreadBlock() {
    Registry& r = registry();
    const std::lock_guard lock(r.mutex);
    r.live.push_back(&slots);
  }
  ~ThreadBlock() {
    Registry& r = registry();
    const std::lock_guard lock(r.mutex);
    for (std::size_t i = 0; i < kWorkCount; ++i)
      r.retired[i] += slots[i].load(std::memory_order_relaxed);
    r.live.erase(std::find(r.live.begin(), r.live.end(), &slots));
  }
};

thread_local ThreadBlock tls_block;

}  // namespace

std::string_view name_of(Work w) noexcept {
  switch (w) {
    case Work::reuse_slots_moved:
      return "reuse_slots_moved";
    case Work::reuse_vms_examined:
      return "reuse_vms_examined";
    case Work::workflow_checks:
      return "workflow_checks";
  }
  return "?";
}

void add_work(Work w, std::uint64_t n) noexcept {
  std::atomic<std::uint64_t>& slot = tls_block.slots[static_cast<std::size_t>(w)];
  slot.store(slot.load(std::memory_order_relaxed) + n, std::memory_order_relaxed);
}

std::uint64_t work_total(Work w) noexcept {
  const auto i = static_cast<std::size_t>(w);
  Registry& r = registry();
  const std::lock_guard lock(r.mutex);
  std::uint64_t total = r.retired[i];
  for (const Slots* slots : r.live)
    total += (*slots)[i].load(std::memory_order_relaxed);
  return total;
}

}  // namespace cloudwf::obs
