// obs::monotonic_ns, the one clock the library times with: it never goes
// backwards, and an interval measured across a sleep is at least the
// sleep's length.

#include "obs/timing.h"

#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <thread>

namespace obs = hsconas::obs;

namespace {

TEST(MonotonicClock, NeverGoesBackwardsAndCoversASleep) {
  std::uint64_t prev = obs::monotonic_ns();
  for (int i = 0; i < 10000; ++i) {
    const std::uint64_t now = obs::monotonic_ns();
    ASSERT_GE(now, prev) << "read " << i;
    prev = now;
  }
  constexpr std::uint64_t kSleepNs = 20'000'000;
  const std::uint64_t t0 = obs::monotonic_ns();
  std::this_thread::sleep_for(std::chrono::nanoseconds(kSleepNs));
  EXPECT_GE(obs::monotonic_ns() - t0, kSleepNs);
}

}  // namespace
