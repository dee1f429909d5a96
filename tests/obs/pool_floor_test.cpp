// The thread pool's work floor, seen through its counters: a loop whose
// total work is below util::kParallelWorkFloor runs on the calling thread
// and submits no task; a loop above it still fans out. Pinned both on the
// raw parallel_for overload and on the conv layers that use it, at the
// proxy search's shapes (36 images of 12x12) and at a large shape.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <string>
#include <thread>

#include "nn/conv2d.h"
#include "obs/export.h"
#include "obs/metrics.h"
#include "tensor/tensor.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace hsconas::obs {
namespace {

using tensor::Tensor;

/// Resize the global pool for one scope, restoring the prior width.
class PoolGuard {
 public:
  explicit PoolGuard(std::size_t threads)
      : prev_(util::ThreadPool::global().size()) {
    util::ThreadPool::configure_global(threads);
  }
  ~PoolGuard() { util::ThreadPool::configure_global(prev_); }
  PoolGuard(const PoolGuard&) = delete;
  PoolGuard& operator=(const PoolGuard&) = delete;

 private:
  std::size_t prev_;
};

std::uint64_t count(const char* name) {
  return metrics_snapshot().counter_value(name);
}

constexpr const char* kSubmitted = "hsconas.pool.tasks_submitted";
constexpr const char* kCalls = "hsconas.pool.parallel_for_calls";
constexpr const char* kInline = "hsconas.pool.parallel_for_inline";

TEST(PoolWorkFloor, BelowFloorRunsInlineOnCaller) {
  PoolGuard guard(4);
  auto& pool = util::ThreadPool::global();
  const std::uint64_t submitted0 = count(kSubmitted);
  const std::uint64_t calls0 = count(kCalls);
  const std::uint64_t inline0 = count(kInline);

  const std::thread::id caller = std::this_thread::get_id();
  std::atomic<int> off_caller{0};
  std::atomic<int> ran{0};
  pool.parallel_for(64, util::kParallelWorkFloor / 64 - 1,
                    [&](std::size_t) {
                      if (std::this_thread::get_id() != caller) ++off_caller;
                      ++ran;
                    });
  EXPECT_EQ(ran.load(), 64);
  EXPECT_EQ(off_caller.load(), 0);
  EXPECT_EQ(count(kSubmitted), submitted0);
  EXPECT_EQ(count(kCalls), calls0 + 1);
  EXPECT_EQ(count(kInline), inline0 + 1);

  // An overflowing estimate is far above the floor, not wrapped below it.
  ran = 0;
  pool.parallel_for(64, SIZE_MAX / 2, [&](std::size_t) { ++ran; });
  EXPECT_EQ(ran.load(), 64);
  EXPECT_GT(count(kSubmitted), submitted0);
  EXPECT_EQ(count(kInline), inline0 + 1);
}

TEST(PoolWorkFloor, AtFloorFansOut) {
  PoolGuard guard(4);
  const std::uint64_t submitted0 = count(kSubmitted);
  const std::uint64_t inline0 = count(kInline);
  std::atomic<int> ran{0};
  util::ThreadPool::global().parallel_for(
      64, util::kParallelWorkFloor / 64, [&](std::size_t) { ++ran; });
  EXPECT_EQ(ran.load(), 64);
  EXPECT_GT(count(kSubmitted), submitted0);
  EXPECT_EQ(count(kInline), inline0);
}

TEST(PoolWorkFloor, ProxySizedConvSubmitsNoTasks) {
  PoolGuard guard(4);
  util::Rng rng(31);
  // The proxy search's stage-0 shapes at its evaluation batch of 36: a
  // strided depthwise conv and a pointwise conv (whose GEMM is below the
  // GEMM's own parallel threshold).
  nn::Conv2d depthwise(16, 16, 3, 2, 1, 16, false, rng);
  nn::Conv2d pointwise(8, 8, 1, 1, 0, 1, false, rng);
  const Tensor x16 = Tensor::uniform({36, 16, 12, 12}, -1, 1, rng);
  const Tensor x8 = Tensor::uniform({36, 8, 12, 12}, -1, 1, rng);

  const std::uint64_t submitted0 = count(kSubmitted);
  const std::uint64_t inline0 = count(kInline);
  (void)depthwise.forward(x16);
  (void)pointwise.forward(x8);
  EXPECT_EQ(count(kSubmitted), submitted0);
  // Depthwise planes only: the pointwise conv is one implicit GEMM, which
  // packs and writes back with no loop of its own.
  EXPECT_EQ(count(kInline), inline0 + 1);
}

TEST(PoolWorkFloor, LargeConvStillFansOut) {
  PoolGuard guard(4);
  util::Rng rng(32);
  nn::Conv2d depthwise(256, 256, 3, 1, 1, 256, false, rng);
  const Tensor x = Tensor::uniform({1, 256, 32, 32}, -1, 1, rng);
  const std::uint64_t submitted0 = count(kSubmitted);
  (void)depthwise.forward(x);
  EXPECT_GT(count(kSubmitted), submitted0);
}

TEST(PoolWorkFloor, ReportShowsInlineShare) {
  MetricsSnapshot snap;
  snap.counters = {{kCalls, 8}, {kInline, 6}};
  const std::string report = render_metrics_report(snap);
  EXPECT_NE(report.find("parallel_for ran inline: 6 of 8 loops (75.0%)"),
            std::string::npos)
      << report;
}

}  // namespace
}  // namespace hsconas::obs
