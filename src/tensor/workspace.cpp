#include "tensor/workspace.h"

#include <algorithm>
#include <bit>
#include <new>
#include <vector>

#include "obs/metrics.h"
#include "obs/profiler.h"

#if defined(__SANITIZE_ADDRESS__)
#include <sanitizer/asan_interface.h>
#endif

namespace hsconas::tensor {

namespace {

/// Parked blocks are poisoned under AddressSanitizer, so a use after free
/// of pooled storage still reports instead of reading a recycled block.
#if defined(__SANITIZE_ADDRESS__)
void poison(void* p, std::size_t n) { ASAN_POISON_MEMORY_REGION(p, n); }
void unpoison(void* p, std::size_t n) { ASAN_UNPOISON_MEMORY_REGION(p, n); }
#else
void poison(void*, std::size_t) {}
void unpoison(void*, std::size_t) {}
#endif

/// The size class of a request: 64-byte steps up to 512 bytes, then four
/// classes per power of two (at most 25% slack), so nearby activation and
/// scratch sizes share parked blocks.
std::size_t size_class(std::size_t bytes) {
  if (bytes <= kBlockAlign) return kBlockAlign;
  const std::size_t step = std::max(kBlockAlign, std::bit_ceil(bytes) / 8);
  return (bytes + step - 1) / step * step;
}

void* heap_block(std::size_t rounded) {
  return ::operator new(rounded, std::align_val_t{kBlockAlign});
}

void free_block(void* p) noexcept {
  ::operator delete(p, std::align_val_t{kBlockAlign});
}

obs::Counter& heap_allocs_counter() {
  static obs::Counter& c = obs::counter("hsconas.tensor.pool.heap_allocs");
  return c;
}

obs::Counter& hits_counter() {
  static obs::Counter& c = obs::counter("hsconas.tensor.pool.hits");
  return c;
}

/// Parked blocks of one size class.
struct Bucket {
  std::size_t bytes = 0;
  std::uint64_t last_use = 0;  ///< ThreadBlocks::tick_ at the last hit/park
  std::vector<void*> blocks;
};

/// Set when the calling thread's ThreadBlocks is destroyed at thread exit.
/// Blocks freed after that (by later thread_local or static destructors)
/// go straight back to the heap. A trivially destructible thread_local
/// stays readable for the whole of thread exit.
thread_local bool t_blocks_gone = false;

/// One thread's parked blocks, in buckets sorted by size. A network pass
/// touches a few dozen to a few hundred sizes, so lookup is a binary
/// search; eviction scans, but only runs when the bound is reached.
class ThreadBlocks {
 public:
  ~ThreadBlocks() {
    release();
    t_blocks_gone = true;
  }

  void* take(std::size_t rounded) {
    auto it = find(rounded);
    if (it == buckets_.end() || it->bytes != rounded || it->blocks.empty()) {
      return nullptr;
    }
    void* p = it->blocks.back();
    it->blocks.pop_back();
    it->last_use = ++tick_;
    parked_ -= rounded;
    unpoison(p, rounded);
    return p;
  }

  /// Parks `p`; false when it has to go back to the heap instead.
  bool park(void* p, std::size_t rounded) {
    if (rounded > kMaxParkedBytes) return false;
    while (parked_ + rounded > kMaxParkedBytes && evict_lru(rounded)) {
    }
    if (parked_ + rounded > kMaxParkedBytes) return false;
    auto it = find(rounded);
    if (it == buckets_.end() || it->bytes != rounded) {
      it = buckets_.insert(it, Bucket{rounded, 0, {}});
    }
    it->blocks.push_back(p);
    it->last_use = ++tick_;
    parked_ += rounded;
    poison(p, rounded);
    return true;
  }

  std::size_t parked_bytes() const { return parked_; }

  void release() {
    for (Bucket& b : buckets_) free_bucket(b);
    buckets_.clear();
    parked_ = 0;
  }

 private:
  std::vector<Bucket>::iterator find(std::size_t rounded) {
    return std::lower_bound(
        buckets_.begin(), buckets_.end(), rounded,
        [](const Bucket& b, std::size_t bytes) { return b.bytes < bytes; });
  }

  /// Frees the least recently used bucket other than `keep`'s size.
  bool evict_lru(std::size_t keep) {
    auto victim = buckets_.end();
    for (auto it = buckets_.begin(); it != buckets_.end(); ++it) {
      if (it->bytes != keep && !it->blocks.empty() &&
          (victim == buckets_.end() || it->last_use < victim->last_use)) {
        victim = it;
      }
    }
    if (victim == buckets_.end()) return false;
    parked_ -= victim->bytes * victim->blocks.size();
    free_bucket(*victim);
    buckets_.erase(victim);
    return true;
  }

  static void free_bucket(Bucket& b) {
    for (void* p : b.blocks) {
      unpoison(p, b.bytes);
      free_block(p);
    }
  }

  std::vector<Bucket> buckets_;
  std::size_t parked_ = 0;
  std::uint64_t tick_ = 0;
};

ThreadBlocks& thread_blocks() {
  thread_local ThreadBlocks blocks;
  return blocks;
}

/// obs sits below tensor, so the profiler can't call Workspace::tls()
/// itself — register probe functions instead (see obs::WorkspaceProbe).
/// The registrar only stores plain function pointers into obs globals, so
/// static-init order across TUs is harmless; workspace.o is always pulled
/// into the link by the kernels that lease scratch.
[[maybe_unused]] const bool g_workspace_probe_registered = [] {
  obs::WorkspaceProbe probe;
  probe.reset_scope_peak = [] { Workspace::tls().reset_scope_peak(); };
  probe.scope_peak_bytes = []() -> std::uint64_t {
    return static_cast<std::uint64_t>(Workspace::tls().scope_peak_bytes());
  };
  obs::set_workspace_probe(probe);
  return true;
}();

}  // namespace

void* pool_allocate(std::size_t bytes) {
  const std::size_t rounded = size_class(bytes);
  if (!t_blocks_gone) {
    if (void* p = thread_blocks().take(rounded)) {
      hits_counter().add();
      return p;
    }
  }
  heap_allocs_counter().add();
  return heap_block(rounded);
}

void pool_deallocate(void* p, std::size_t bytes) noexcept {
  if (p == nullptr) return;
  // Bookkeeping growth (a new bucket, a longer block list) can itself
  // throw bad_alloc; inside a noexcept deallocation path the block just
  // goes back to the heap instead.
  try {
    if (!t_blocks_gone && thread_blocks().park(p, size_class(bytes))) return;
  } catch (...) {
  }
  free_block(p);
}

std::uint64_t pool_heap_allocs() { return heap_allocs_counter().value(); }

std::uint64_t pool_hits() { return hits_counter().value(); }

std::size_t pool_parked_bytes() {
  return t_blocks_gone ? 0 : thread_blocks().parked_bytes();
}

void pool_release_thread_memory() {
  if (!t_blocks_gone) thread_blocks().release();
}

Workspace& Workspace::tls() {
  thread_local Workspace ws;
  return ws;
}

void* Workspace::lease(std::size_t bytes) {
  static obs::Counter& leases = obs::counter("hsconas.workspace.leases");
  static obs::Gauge& peak = obs::gauge("hsconas.workspace.peak_bytes");
  leases.add();
  void* p = pool_allocate(bytes);
  // High-water mark of scratch leased out by this thread; the shared
  // gauge keeps the max across all threads for bench/report context.
  outstanding_bytes_ += bytes;
  scope_peak_bytes_ = std::max(scope_peak_bytes_, outstanding_bytes_);
  peak.update_max(static_cast<double>(outstanding_bytes_));
  return p;
}

void Workspace::end_lease(void* p, std::size_t bytes) noexcept {
  outstanding_bytes_ -= std::min(outstanding_bytes_, bytes);
  pool_deallocate(p, bytes);
}

}  // namespace hsconas::tensor
