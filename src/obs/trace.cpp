#include "obs/trace.h"

#include <algorithm>
#include <atomic>
#include <cstring>
#include <memory>
#include <mutex>

namespace hsconas::obs {

namespace {

std::atomic<bool> g_enabled{false};

/// Fixed-capacity overwrite-oldest event ring. Each thread owns one; the
/// per-ring mutex is uncontended on the record path (only a snapshot/clear
/// from another thread ever takes it concurrently).
struct ThreadRing {
  std::mutex mutex;
  std::vector<TraceEvent> events;  // grows to kRingCapacity, then wraps
  std::size_t head = 0;            // next write position once full
  bool full = false;
  std::uint64_t dropped = 0;
  std::uint32_t tid = 0;
};

struct RingDirectory {
  std::mutex mutex;
  std::vector<std::shared_ptr<ThreadRing>> rings;
};

RingDirectory& directory() {
  static RingDirectory* d = new RingDirectory;  // leak: see metrics registry
  return *d;
}

ThreadRing& tls_ring() {
  // The shared_ptr keeps the ring alive in the directory after the thread
  // exits, so short-lived pool threads' spans survive into the export.
  thread_local std::shared_ptr<ThreadRing> ring = [] {
    auto r = std::make_shared<ThreadRing>();
    RingDirectory& d = directory();
    std::lock_guard<std::mutex> lock(d.mutex);
    r->tid = static_cast<std::uint32_t>(d.rings.size() + 1);
    d.rings.push_back(r);
    return r;
  }();
  return *ring;
}

}  // namespace

void Tracer::enable() {
  g_enabled.store(true, std::memory_order_relaxed);
}

void Tracer::disable() { g_enabled.store(false, std::memory_order_relaxed); }

bool Tracer::enabled() noexcept {
  return g_enabled.load(std::memory_order_relaxed);
}

std::vector<TraceEvent> Tracer::snapshot() {
  std::vector<std::shared_ptr<ThreadRing>> rings;
  {
    RingDirectory& d = directory();
    std::lock_guard<std::mutex> lock(d.mutex);
    rings = d.rings;
  }
  std::vector<TraceEvent> out;
  for (const auto& ring : rings) {
    std::lock_guard<std::mutex> lock(ring->mutex);
    if (!ring->full) {
      out.insert(out.end(), ring->events.begin(), ring->events.end());
    } else {
      // Oldest-first: [head, end) then [0, head).
      out.insert(out.end(), ring->events.begin() + static_cast<std::ptrdiff_t>(ring->head),
                 ring->events.end());
      out.insert(out.end(), ring->events.begin(),
                 ring->events.begin() + static_cast<std::ptrdiff_t>(ring->head));
    }
  }
  std::stable_sort(out.begin(), out.end(),
                   [](const TraceEvent& a, const TraceEvent& b) {
                     return a.start_ns < b.start_ns;
                   });
  return out;
}

std::uint64_t Tracer::dropped() {
  RingDirectory& d = directory();
  std::lock_guard<std::mutex> lock(d.mutex);
  std::uint64_t total = 0;
  for (const auto& ring : d.rings) {
    std::lock_guard<std::mutex> ring_lock(ring->mutex);
    total += ring->dropped;
  }
  return total;
}

void Tracer::clear() {
  RingDirectory& d = directory();
  std::lock_guard<std::mutex> lock(d.mutex);
  for (const auto& ring : d.rings) {
    std::lock_guard<std::mutex> ring_lock(ring->mutex);
    ring->events.clear();
    ring->head = 0;
    ring->full = false;
    ring->dropped = 0;
  }
}

namespace detail {

std::uint32_t& thread_depth() {
  thread_local std::uint32_t depth = 0;
  return depth;
}

void record_span(const char* name, std::uint64_t start_ns,
                 std::uint64_t dur_ns, std::uint32_t depth,
                 std::uint64_t items) {
  ThreadRing& ring = tls_ring();
  TraceEvent ev;
  std::strncpy(ev.name, name, TraceEvent::kNameCapacity - 1);
  ev.name[TraceEvent::kNameCapacity - 1] = '\0';
  ev.start_ns = start_ns;
  ev.dur_ns = dur_ns;
  ev.tid = ring.tid;
  ev.depth = depth;
  ev.items = items;

  std::lock_guard<std::mutex> lock(ring.mutex);
  if (ring.events.size() < Tracer::kRingCapacity) {
    ring.events.push_back(ev);
    return;
  }
  ring.events[ring.head] = ev;
  ring.head = (ring.head + 1) % Tracer::kRingCapacity;
  ring.full = true;
  ++ring.dropped;
}

}  // namespace detail

}  // namespace hsconas::obs
