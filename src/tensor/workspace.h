#pragma once

#include <cstddef>
#include <cstdint>
#include <type_traits>
#include <utility>

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

  /// Default-initialize: a vector sized without a value (Tensor's
  /// for_overwrite) leaves its elements unwritten; a vector sized with one
  /// still copies it in.
  template <class U>
  void construct(U* p) noexcept(std::is_nothrow_default_constructible_v<U>) {
    ::new (static_cast<void*>(p)) U;
  }
  template <class U, class... Args>
  void construct(U* p, Args&&... args) {
    ::new (static_cast<void*>(p)) U(std::forward<Args>(args)...);
  }

  template <class U>
  bool operator==(const PooledAllocator<U>&) const noexcept {
    return true;
  }
};

/// RAII lease on a scratch buffer of n elements of T from the pool.
/// Returns the block to the releasing thread's pool on destruction, so the
/// next lease of the same size class reuses it instead of hitting the
/// heap. Contents are uninitialized.
template <class T = float>
class Scratch {
  static_assert(std::is_trivial_v<T>, "a lease holds raw, unconstructed T");

 public:
  Scratch() = default;
  Scratch(Scratch&& other) noexcept
      : data_(std::exchange(other.data_, nullptr)),
        size_(std::exchange(other.size_, 0)) {}
  Scratch& operator=(Scratch&& other) noexcept {
    if (this != &other) {
      release();
      data_ = std::exchange(other.data_, nullptr);
      size_ = std::exchange(other.size_, 0);
    }
    return *this;
  }
  Scratch(const Scratch&) = delete;
  Scratch& operator=(const Scratch&) = delete;
  ~Scratch() { release(); }

  T* data() { return data_; }
  const T* data() const { return data_; }
  std::size_t size() const { return size_; }
  T& operator[](std::size_t i) { return data_[i]; }
  const T& operator[](std::size_t i) const { return data_[i]; }

 private:
  friend class Workspace;
  Scratch(T* data, std::size_t size) : data_(data), size_(size) {}
  void release() noexcept;

  T* data_ = nullptr;  ///< null when empty
  std::size_t size_ = 0;
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

  /// Lease a buffer of n elements of T, 64-byte aligned, uninitialized.
  template <class T = float>
  Scratch<T> take(std::size_t n) {
    if (n == 0) n = 1;
    return Scratch<T>(static_cast<T*>(lease(n * sizeof(T))), n);
  }

  /// Bytes currently leased out on this thread. The cross-thread peak is
  /// published to the `hsconas.workspace.peak_bytes` gauge.
  std::size_t outstanding_bytes() const { return outstanding_bytes_; }

  /// Resettable watermark window for per-operator attribution: the
  /// profiler (obs::OpScope) calls reset_scope_peak() when a profiled op
  /// opens and reads scope_peak_bytes() when it closes, giving the op's
  /// own scratch high-water mark without disturbing the lifetime peak.
  void reset_scope_peak() { scope_peak_bytes_ = outstanding_bytes_; }
  std::size_t scope_peak_bytes() const { return scope_peak_bytes_; }

 private:
  template <class T>
  friend class Scratch;
  Workspace() = default;

  /// A pooled block of `bytes`, counted as leased out on this thread.
  void* lease(std::size_t bytes);
  /// Returns a lease's block to the pool and ends its count here.
  void end_lease(void* p, std::size_t bytes) noexcept;

  std::size_t outstanding_bytes_ = 0;
  std::size_t scope_peak_bytes_ = 0;
};

template <class T>
void Scratch<T>::release() noexcept {
  if (data_ == nullptr) return;
  Workspace::tls().end_lease(data_, size_ * sizeof(T));
  data_ = nullptr;
  size_ = 0;
}

}  // namespace hsconas::tensor
