#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "obs/timing.h"

namespace hsconas::obs {

/// Span tracer: RAII scopes record (name, thread, start, duration, depth)
/// events into fixed-capacity per-thread ring buffers, exportable as a
/// Chrome `chrome://tracing` / Perfetto-compatible trace.json (see
/// obs/export.h). Two kill switches:
///
///  - runtime:      Tracer::enable()/disable(); a disabled TraceScope is a
///                  single relaxed atomic load and touches nothing else —
///                  no clock read, no allocation, no buffer registration.
///  - compile-time: configure with -DHSCONAS_ENABLE_TRACING=OFF and
///                  HSCONAS_TRACE_SCOPE expands to `((void)0)`, so traced
///                  code carries zero instructions.
///
/// Rings overwrite their oldest events when full (dropped() reports how
/// many), so tracing long runs is safe — you keep the most recent window.

/// One completed span. `name` is copied (truncated) at scope exit, so
/// dynamic names (util::format(...)) are safe.
struct TraceEvent {
  static constexpr std::size_t kNameCapacity = 48;
  char name[kNameCapacity];
  std::uint64_t start_ns = 0;  ///< monotonic_ns() at the span's start
  std::uint64_t dur_ns = 0;
  std::uint32_t tid = 0;       ///< small per-process thread index (from 1)
  std::uint32_t depth = 0;     ///< nesting depth within the thread
  std::uint64_t items = 0;     ///< work items the span covered; 0 = unset
};

class Tracer {
 public:
  static void enable();
  static void disable();
  static bool enabled() noexcept;

  /// Copy out every recorded event (all threads), sorted by start time.
  static std::vector<TraceEvent> snapshot();

  /// Total events overwritten by full rings since the last clear().
  static std::uint64_t dropped();

  /// Drop all recorded events and the dropped count (thread rings stay
  /// registered). Does not change the enabled state.
  static void clear();

  /// Ring capacity in events, per thread.
  static constexpr std::size_t kRingCapacity = 4096;
};

namespace detail {
void record_span(const char* name, std::uint64_t start_ns,
                 std::uint64_t dur_ns, std::uint32_t depth,
                 std::uint64_t items = 0);
std::uint32_t& thread_depth();
}  // namespace detail

/// RAII span. Construct with a literal or a std::string; the name is read
/// at scope exit, so pass temporaries via the std::string overload (which
/// stores a copy) rather than keeping char pointers alive yourself. A
/// literal name may carry the number of work items the span covers (e.g.
/// candidates scored); it is exported as the event's `args.items`.
class TraceScope {
 public:
  explicit TraceScope(const char* name, std::uint64_t items = 0) noexcept {
    if (!Tracer::enabled()) return;
    items_ = items;
    begin(name);
  }
  explicit TraceScope(const std::string& name) noexcept {
    if (!Tracer::enabled()) return;
    owned_ = name;  // keep the chars alive until the destructor
    begin(owned_.c_str());
  }
  ~TraceScope() {
    if (!active_) return;
    const std::uint64_t end = monotonic_ns();
    --detail::thread_depth();
    detail::record_span(name_, start_ns_, end - start_ns_,
                        detail::thread_depth(), items_);
  }
  TraceScope(const TraceScope&) = delete;
  TraceScope& operator=(const TraceScope&) = delete;

 private:
  void begin(const char* name) noexcept {
    active_ = true;
    name_ = name;
    start_ns_ = monotonic_ns();
    ++detail::thread_depth();
  }

  bool active_ = false;
  const char* name_ = "";
  std::string owned_;
  std::uint64_t start_ns_ = 0;
  std::uint64_t items_ = 0;
};

}  // namespace hsconas::obs

#if defined(HSCONAS_TRACING_DISABLED)
#define HSCONAS_TRACE_SCOPE(...) ((void)0)
#else
#define HSCONAS_TRACE_CONCAT2_(a, b) a##b
#define HSCONAS_TRACE_CONCAT_(a, b) HSCONAS_TRACE_CONCAT2_(a, b)
#define HSCONAS_TRACE_SCOPE(...)                               \
  ::hsconas::obs::TraceScope HSCONAS_TRACE_CONCAT_(            \
      hsconas_trace_scope_, __LINE__)(__VA_ARGS__)
#endif
