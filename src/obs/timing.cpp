#include "obs/timing.h"

#include <chrono>
#include <ctime>

namespace hsconas::obs {

namespace {

std::chrono::steady_clock::time_point process_epoch() {
  static const std::chrono::steady_clock::time_point epoch =
      std::chrono::steady_clock::now();
  return epoch;
}

#if defined(CLOCK_PROCESS_CPUTIME_ID)
double clock_ms(clockid_t id) {
  timespec ts{};
  if (clock_gettime(id, &ts) != 0) return 0.0;
  return static_cast<double>(ts.tv_sec) * 1e3 +
         static_cast<double>(ts.tv_nsec) / 1e6;
}
#endif

}  // namespace

std::uint64_t monotonic_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - process_epoch())
          .count());
}

double process_cpu_ms() {
#if defined(CLOCK_PROCESS_CPUTIME_ID)
  return clock_ms(CLOCK_PROCESS_CPUTIME_ID);
#else
  return static_cast<double>(std::clock()) * 1e3 /
         static_cast<double>(CLOCKS_PER_SEC);
#endif
}

bool wait_for_ns(std::condition_variable& cv,
                 std::unique_lock<std::mutex>& lock, std::uint64_t ns) {
  return cv.wait_for(lock, std::chrono::nanoseconds(ns)) ==
         std::cv_status::no_timeout;
}

}  // namespace hsconas::obs
