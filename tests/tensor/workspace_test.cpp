// Unit contracts for the one thread-local block pool behind Tensor storage
// and Workspace scratch leases: alignment, zeroed leases, recycling and
// granule rounding, move semantics, per-thread pools, cross-thread block
// fungibility, frees during thread exit, the parked-bytes bound and its
// eviction order, counter semantics, and Tensor integration. Part of the `serving` label, so the
// TSan CI stage runs the cross-thread free paths.

#include "tensor/workspace.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <thread>
#include <utility>
#include <vector>

#include "tensor/tensor.h"

namespace hsconas::tensor {
namespace {

bool aligned(const void* p) {
  return reinterpret_cast<std::uintptr_t>(p) % kBlockAlign == 0;
}

TEST(Workspace, TakeReturnsAlignedWritableBuffer) {
  Scratch s = Workspace::tls().take(1000);
  ASSERT_NE(s.data(), nullptr);
  EXPECT_GE(s.size(), 1000u);
  EXPECT_TRUE(aligned(s.data()));
  for (std::size_t i = 0; i < 1000; ++i) s[i] = static_cast<float>(i);
  for (std::size_t i = 0; i < 1000; ++i) {
    EXPECT_EQ(s[i], static_cast<float>(i));
  }
}

TEST(Workspace, TakeZeroedIsZero) {
  Workspace& ws = Workspace::tls();
  {
    // Dirty a buffer, return it to the pool...
    Scratch s = ws.take(256);
    for (std::size_t i = 0; i < 256; ++i) s[i] = 7.0f;
  }
  // ...then the zeroed lease of the same size must not see the residue.
  Scratch z = ws.take_zeroed(256);
  for (std::size_t i = 0; i < 256; ++i) EXPECT_EQ(z[i], 0.0f);
}

TEST(Workspace, LeaseReturnsToPoolAndIsReused) {
  Workspace& ws = Workspace::tls();
  pool_release_thread_memory();
  float* first = nullptr;
  {
    Scratch s = ws.take(512);
    first = s.data();
    EXPECT_EQ(pool_parked_bytes(), 0u);  // leased out, not parked
    EXPECT_EQ(ws.outstanding_floats(), 512u);
  }
  EXPECT_EQ(pool_parked_bytes(), 512 * sizeof(float));
  EXPECT_EQ(ws.outstanding_floats(), 0u);
  {
    Scratch s = ws.take(512);  // same size: must reuse, not reallocate
    EXPECT_EQ(s.data(), first);
    EXPECT_EQ(pool_parked_bytes(), 0u);
  }
  EXPECT_EQ(pool_parked_bytes(), 512 * sizeof(float));
}

TEST(Workspace, ConcurrentLeasesAreDistinct) {
  Workspace& ws = Workspace::tls();
  Scratch a = ws.take(64);
  Scratch b = ws.take(64);
  EXPECT_NE(a.data(), b.data());
}

TEST(Workspace, MoveTransfersOwnership) {
  Workspace& ws = Workspace::tls();
  pool_release_thread_memory();
  Scratch a = ws.take(128);
  float* p = a.data();
  Scratch b = std::move(a);
  EXPECT_EQ(b.data(), p);
  EXPECT_EQ(a.data(), nullptr);  // NOLINT(bugprone-use-after-move): asserted
  EXPECT_EQ(pool_parked_bytes(), 0u);  // still leased, via b
  EXPECT_EQ(ws.outstanding_floats(), 128u);

  Scratch c = ws.take(128);
  c = std::move(b);  // c's own block goes back to the pool
  EXPECT_EQ(c.data(), p);
  EXPECT_EQ(pool_parked_bytes(), 128 * sizeof(float));
  EXPECT_EQ(ws.outstanding_floats(), 128u);
}

TEST(Workspace, ReleaseMemoryDropsPool) {
  Workspace& ws = Workspace::tls();
  { Scratch s = ws.take(64); }
  { Scratch s = ws.take(4096); }
  EXPECT_GT(pool_parked_bytes(), 0u);
  pool_release_thread_memory();
  EXPECT_EQ(pool_parked_bytes(), 0u);
}

TEST(Workspace, TlsIsPerThread) {
  Workspace* main_ws = &Workspace::tls();
  Workspace* other_ws = nullptr;
  std::thread t([&other_ws] { other_ws = &Workspace::tls(); });
  t.join();
  EXPECT_EQ(main_ws, &Workspace::tls());
  EXPECT_NE(other_ws, nullptr);
  EXPECT_NE(main_ws, other_ws);
}

TEST(Workspace, ScratchReleasedOnAnotherThreadIsReusedThere) {
  // A lease taken on this thread and released on another parks on the
  // releasing thread's pool: the next lease of that size there reuses it.
  pool_release_thread_memory();
  Scratch s = Workspace::tls().take(4321);
  float* block = s.data();
  float* reused = nullptr;
  std::size_t parked_there = 0;
  std::thread t([&] {
    { Scratch moved = std::move(s); }
    parked_there = pool_parked_bytes();
    Scratch again = Workspace::tls().take(4321);
    reused = again.data();
    again = Scratch();
    pool_release_thread_memory();
  });
  t.join();
  EXPECT_GE(parked_there, 4321 * sizeof(float));
  EXPECT_EQ(reused, block);
  EXPECT_EQ(pool_parked_bytes(), 0u);  // nothing came back here
}

TEST(TensorPool, RecyclesParkedBlocks) {
  pool_release_thread_memory();
  const std::uint64_t heap0 = pool_heap_allocs();
  const std::uint64_t hits0 = pool_hits();

  void* p = pool_allocate(1024);
  EXPECT_EQ(pool_heap_allocs(), heap0 + 1);
  pool_deallocate(p, 1024);
  EXPECT_EQ(pool_parked_bytes(), 1024u);

  void* q = pool_allocate(1024);
  EXPECT_EQ(q, p);  // LIFO reuse of the parked block
  EXPECT_EQ(pool_heap_allocs(), heap0 + 1);  // no new heap trip
  EXPECT_EQ(pool_hits(), hits0 + 1);
  pool_deallocate(q, 1024);
  pool_release_thread_memory();
  EXPECT_EQ(pool_parked_bytes(), 0u);
}

TEST(TensorPool, GranuleRoundingSharesBucketsAcrossAdjacentSizes) {
  pool_release_thread_memory();
  const std::uint64_t hits0 = pool_hits();

  // 1 and 64 bytes round to the same 64-byte granule: a block parked from
  // a 1-byte request must satisfy a 64-byte request.
  void* p = pool_allocate(1);
  pool_deallocate(p, 1);
  void* q = pool_allocate(64);
  EXPECT_EQ(q, p);
  EXPECT_EQ(pool_hits(), hits0 + 1);
  pool_deallocate(q, 64);

  // 65 bytes rounds up to the next granule: different bucket, no hit.
  void* r = pool_allocate(65);
  EXPECT_NE(r, q);
  EXPECT_EQ(pool_hits(), hits0 + 1);
  pool_deallocate(r, 65);
  pool_release_thread_memory();
}

TEST(TensorPool, BlocksAreFungibleAcrossThreads) {
  // Allocate on one thread, free on another (and back): blocks are plain
  // aligned heap storage, so ownership can cross threads without
  // corruption, and each block parks where it is freed. TSan runs this
  // test via `ctest -L serving`.
  pool_release_thread_memory();
  void* from_worker = nullptr;
  std::thread producer([&] {
    from_worker = pool_allocate(512);
    std::memset(from_worker, 0x5a, 512);
  });
  producer.join();
  ASSERT_NE(from_worker, nullptr);
  pool_deallocate(from_worker, 512);  // parks on this thread
  EXPECT_EQ(pool_parked_bytes(), 512u);
  void* mine = pool_allocate(512);
  EXPECT_EQ(mine, from_worker);

  std::thread consumer([&] {
    pool_deallocate(mine, 512);  // parks on the consumer
    EXPECT_EQ(pool_parked_bytes(), 512u);
    pool_release_thread_memory();
  });
  consumer.join();
  EXPECT_EQ(pool_parked_bytes(), 0u);
}

TEST(TensorPool, BlocksFreedAfterThreadTeardownGoToTheHeap) {
  // `late` is constructed before the thread's pool (which the Tensor
  // below creates), so it is destroyed after the pool at thread exit: its
  // Tensor's blocks must go to the heap, not into the destroyed pool (an
  // ASan build reports blocks parked there as leaked).
  std::thread t([] {
    thread_local std::vector<Tensor> late;
    late.reserve(1);
    late.emplace_back(Tensor({4, 4}));
  });
  t.join();
}

TEST(TensorPool, ParkedBytesStayWithinBoundUnderChurn) {
  pool_release_thread_memory();
  // 256 distinct sizes from 128 KiB up, about 64 MiB in all: far more than
  // the bound. All are live at once, then freed oldest first. The blocks
  // are never written, so the churn does not make its pages resident.
  constexpr std::size_t kSizes = 256;
  const auto size_of = [](std::size_t i) {
    return (std::size_t{128} << 10) + i * (std::size_t{1} << 10);
  };
  std::vector<void*> live;
  for (std::size_t i = 0; i < kSizes; ++i) {
    live.push_back(pool_allocate(size_of(i)));
    EXPECT_TRUE(aligned(live.back()));
  }
  std::size_t max_parked = 0;
  for (std::size_t i = 0; i < kSizes; ++i) {
    pool_deallocate(live[i], size_of(i));
    max_parked = std::max(max_parked, pool_parked_bytes());
    ASSERT_LE(pool_parked_bytes(), kMaxParkedBytes) << "after size " << i;
  }
  EXPECT_GT(max_parked, kMaxParkedBytes / 2);  // the bound was reached

  // Eviction frees the least recently used classes: the newest size is
  // still parked, the oldest (alone in its class) went back to the heap.
  const std::uint64_t heap0 = pool_heap_allocs();
  void* newest = pool_allocate(size_of(kSizes - 1));
  EXPECT_EQ(pool_heap_allocs(), heap0);
  void* oldest = pool_allocate(size_of(0));
  EXPECT_EQ(pool_heap_allocs(), heap0 + 1);
  pool_deallocate(newest, size_of(kSizes - 1));
  pool_deallocate(oldest, size_of(0));
  EXPECT_LE(pool_parked_bytes(), kMaxParkedBytes);

  // A block larger than the bound never parks.
  const std::size_t parked = pool_parked_bytes();
  void* huge = pool_allocate(kMaxParkedBytes + 1);
  pool_deallocate(huge, kMaxParkedBytes + 1);
  EXPECT_EQ(pool_parked_bytes(), parked);
  pool_release_thread_memory();
}

TEST(TensorPool, TensorStorageIsAligned) {
  for (long n : {1L, 3L, 17L, 100L, 1000L}) {
    Tensor t({n, 3});
    EXPECT_TRUE(aligned(t.data())) << "f32 numel " << t.numel();
    Tensor q = Tensor::quantized({n, 3}, DType::kI8, QuantParams{});
    EXPECT_TRUE(aligned(q.i8_data())) << "i8 numel " << q.numel();
    EXPECT_TRUE(aligned(t.shape().data()));
  }
}

TEST(TensorPool, TensorChurnIsAllocationFreeOnceWarm) {
  // Warm: first construction faults in data + shape blocks.
  { Tensor warm({2, 3, 8, 8}); }
  const std::uint64_t heap0 = pool_heap_allocs();
  const std::uint64_t hits0 = pool_hits();
  for (int i = 0; i < 20; ++i) {
    Tensor t({2, 3, 8, 8});
    t.data()[0] = static_cast<float>(i);
  }
  EXPECT_EQ(pool_heap_allocs(), heap0)
      << "same-shape Tensor churn should be served entirely from the pool";
  EXPECT_GT(pool_hits(), hits0);
  pool_release_thread_memory();
}

TEST(TensorPool, PooledVectorsInteroperateWithPlainVectors) {
  ShapeVec pooled = {1, 3, 32, 32};
  const std::vector<long> plain = {1, 3, 32, 32};
  EXPECT_TRUE(pooled == plain);
  const std::vector<long> shorter = {1, 3, 32};
  EXPECT_FALSE(pooled == shorter);
  pool_release_thread_memory();
}

}  // namespace
}  // namespace hsconas::tensor
