#pragma once

#include <cstddef>
#include <cstdint>
#include <utility>

namespace hsconas::obs {
class Gauge;
}

namespace hsconas::tensor {

/// The library's one thread-local allocator. Tensor storage (through
/// PooledAllocator) and kernel scratch (through Workspace leases) draw
/// 64-byte-aligned blocks from the calling thread's pool, so after a
/// warm-up every training, scoring and serving forward reuses recycled
/// memory instead of calling malloc per layer.
///
/// Blocks: a request is rounded up to its size class (64-byte steps up to
/// 512 bytes, then four classes per power of two) and served from the
/// calling thread's parked blocks of that class; a miss goes to the heap.
/// A freed block parks on the *freeing* thread's pool, so blocks
/// are fungible across threads (a tensor built on one thread may die on
/// another); each thread's parked blocks are touched only by that thread.
///
/// Bound: at most kMaxParkedBytes stay parked per thread, about twice a
/// serving lane's working set over every batch size. Parking past it
/// first frees the least recently used classes; a block that still does
/// not fit goes back to the heap.
///
/// Counters: every heap trip increments `hsconas.tensor.pool.heap_allocs`
/// and every recycled block `hsconas.tensor.pool.hits`. The serving
/// zero-allocation test (tests/serve) pins heap_allocs flat across a
/// post-warm-up serving window.
inline constexpr std::size_t kBlockAlign = 64;  // cache line / AVX-512
inline constexpr std::size_t kMaxParkedBytes = std::size_t{16} << 20;

/// A block of at least `bytes` bytes, kBlockAlign-aligned, uninitialized.
/// pool_deallocate must get the same `bytes`, on any thread.
void* pool_allocate(std::size_t bytes);
void pool_deallocate(void* p, std::size_t bytes) noexcept;

/// Process-wide count of allocations that went to the heap. Flat across a
/// serving window == the window was allocation-free.
std::uint64_t pool_heap_allocs();

/// Process-wide count of allocations served from parked blocks.
std::uint64_t pool_hits();

/// Bytes currently parked in the calling thread's pool (diagnostics).
std::size_t pool_parked_bytes();

/// Free every block parked on the calling thread's pool. Outstanding
/// allocations are unaffected.
void pool_release_thread_memory();

/// Minimal C++20 allocator over the thread-local pool. Stateless — all
/// instances are interchangeable, so vector moves/swaps stay O(1) and
/// noexcept exactly as with std::allocator.
template <class T>
class PooledAllocator {
 public:
  using value_type = T;

  PooledAllocator() = default;
  template <class U>
  PooledAllocator(const PooledAllocator<U>&) noexcept {}

  T* allocate(std::size_t n) {
    return static_cast<T*>(pool_allocate(n * sizeof(T)));
  }
  void deallocate(T* p, std::size_t n) noexcept {
    pool_deallocate(p, n * sizeof(T));
  }

  template <class U>
  bool operator==(const PooledAllocator<U>&) const noexcept {
    return true;
  }
};

/// RAII lease on a float scratch buffer from the pool. Returns the block
/// to the releasing thread's pool on destruction, so the next lease of the
/// same size class reuses it instead of hitting the heap. Contents are
/// uninitialized unless acquired via Workspace::take_zeroed().
class Scratch {
 public:
  Scratch() = default;
  Scratch(Scratch&& other) noexcept
      : data_(std::exchange(other.data_, nullptr)),
        size_(std::exchange(other.size_, 0)) {}
  Scratch& operator=(Scratch&& other) noexcept;
  Scratch(const Scratch&) = delete;
  Scratch& operator=(const Scratch&) = delete;
  ~Scratch() { release(); }

  float* data() { return data_; }
  const float* data() const { return data_; }
  std::size_t size() const { return size_; }
  float& operator[](std::size_t i) { return data_[i]; }
  float operator[](std::size_t i) const { return data_[i]; }

 private:
  friend class Workspace;
  Scratch(float* data, std::size_t size) : data_(data), size_(size) {}
  void release() noexcept;

  float* data_ = nullptr;  ///< null when empty
  std::size_t size_ = 0;
};

/// RAII lease on a byte-typed scratch buffer for the quantized kernels
/// (int8 packing panels, u8 activation staging). Backed by a float lease —
/// reinterpreted, which byte types may do — so the int8 path shares the
/// pool and the lease accounting with the fp32 path.
class ByteScratch {
 public:
  ByteScratch() = default;

  // The views below pun the pooled float block to byte types, which the
  // aliasing rules permit for char-family pointers; this is buffer
  // reinterpretation, not wire-format decoding.
  // hsconas-lint-allow(serial-pointer-cast)
  std::uint8_t* u8() { return reinterpret_cast<std::uint8_t*>(base_.data()); }
  const std::uint8_t* u8() const {
    // hsconas-lint-allow(serial-pointer-cast)
    return reinterpret_cast<const std::uint8_t*>(base_.data());
  }
  // hsconas-lint-allow(serial-pointer-cast)
  std::int8_t* i8() { return reinterpret_cast<std::int8_t*>(base_.data()); }
  const std::int8_t* i8() const {
    // hsconas-lint-allow(serial-pointer-cast)
    return reinterpret_cast<const std::int8_t*>(base_.data());
  }
  std::size_t size() const { return size_; }

 private:
  friend class Workspace;
  ByteScratch(Scratch base, std::size_t size)
      : base_(std::move(base)), size_(size) {}

  Scratch base_;
  std::size_t size_ = 0;  ///< requested bytes
};

/// The calling thread's scratch leases. The hot compute paths (GEMM
/// packing, the conv backward's im2col panels) lease buffers through
/// Workspace::tls() instead of constructing a std::vector per call; the
/// blocks come from the pool above, so after warm-up a forward/backward
/// pass performs zero scratch allocations. Each worker in a
/// ThreadPool::parallel_for body leases through its own Workspace.
///
/// Accounting counts Scratch leases only (not Tensor storage): a lease
/// counts on the thread that takes it and ends on the thread that
/// releases it.
class Workspace {
 public:
  Workspace(const Workspace&) = delete;
  Workspace& operator=(const Workspace&) = delete;

  /// Calling thread's instance (lazily constructed, lives for the thread).
  static Workspace& tls();

  /// Lease a buffer of n floats, 64-byte aligned, uninitialized.
  Scratch take(std::size_t n);

  /// Lease a buffer of n floats with every element set to 0.0f.
  Scratch take_zeroed(std::size_t n);

  /// Lease at least n bytes, 64-byte aligned, uninitialized — a float
  /// lease rounded up to whole floats and viewed as bytes.
  ByteScratch take_bytes(std::size_t n);

  /// Floats currently leased out on this thread. The cross-thread peak in
  /// bytes is published to the `hsconas.workspace.peak_bytes` gauge and
  /// each thread's own high-water mark to
  /// `hsconas.workspace.peak_bytes.t<id>`, so per-thread packing-buffer
  /// sizing is observable.
  std::size_t outstanding_floats() const { return outstanding_floats_; }

  /// Resettable watermark window for per-operator attribution: the
  /// profiler (obs::OpScope) calls reset_scope_peak() when a profiled op
  /// opens and reads scope_peak_floats() when it closes, giving the op's
  /// own scratch high-water mark without disturbing the lifetime peak.
  void reset_scope_peak() { scope_peak_floats_ = outstanding_floats_; }
  std::size_t scope_peak_floats() const { return scope_peak_floats_; }

 private:
  friend class Scratch;
  Workspace() = default;

  std::size_t outstanding_floats_ = 0;
  std::size_t scope_peak_floats_ = 0;
  obs::Gauge* thread_peak_gauge_ = nullptr;
};

}  // namespace hsconas::tensor
