#pragma once

#include <condition_variable>
#include <cstdint>
#include <mutex>

namespace hsconas::obs {

/// The sanctioned clocks for kernel and library code. Timing in
/// src/tensor and src/nn must go through these helpers (or through the
/// TraceScope / OpScope RAII wrappers built on them) instead of touching
/// std::chrono directly — the `timing-discipline` lint rule enforces it.
/// Centralizing the clock reads keeps the overhead model auditable (one
/// steady_clock read per call, no duration_cast chains scattered through
/// hot loops) and gives the profiler a single place to swap clock sources.

/// Monotonic wall-clock nanoseconds since an arbitrary process-local
/// epoch. Comparable across threads; never goes backwards.
std::uint64_t monotonic_ns();

/// CPU time consumed by the whole process (all threads), in milliseconds.
/// Falls back to std::clock() resolution where the POSIX per-process
/// clock is unavailable.
double process_cpu_ms();

/// Timed condition wait in the monotonic_ns() time base, so timing-
/// disciplined code (src/serve batching windows) never touches
/// std::chrono directly. Returns true if the wait was notified, false on
/// timeout; spurious wakeups are possible either way — callers must
/// re-check their predicate, exactly as with condition_variable::wait_for.
bool wait_for_ns(std::condition_variable& cv,
                 std::unique_lock<std::mutex>& lock, std::uint64_t ns);

}  // namespace hsconas::obs
