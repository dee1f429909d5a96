#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <functional>
#include <mutex>
#include <queue>
#include <thread>
#include <vector>

namespace hsconas::util {

/// Work floor for ThreadPool::parallel_for(n, work_per_item, fn): a loop
/// whose total work n × work_per_item (elements touched or multiply-adds)
/// is below this runs inline on the caller. Handing a loop to the pool
/// costs 5-10 us of process CPU on a 2-worker pool (queue lock, worker
/// wake-ups, the join), a large share of what a loop this small does in
/// total; docs/PERFORMANCE.md "Small-shape forward" has the measurement
/// and the sweep that picked the value.
inline constexpr std::size_t kParallelWorkFloor = std::size_t{1} << 18;

/// Fixed-size worker pool with a parallel_for helper. Used by the tensor
/// GEMM, the conv backward's im2col packing loops, and batch evaluation of
/// architecture populations. Raw submit() tasks must not throw (an
/// exception escaping one terminates); parallel_for bodies MAY throw —
/// see below.
///
/// parallel_for is re-entrant: a task running on a pool thread may itself
/// call parallel_for on the same pool (e.g. a GEMM inside a parallel
/// candidate evaluation). The calling thread always participates in the
/// loop's work and only waits for chunks that are actively executing on
/// other threads, so nested calls can never deadlock on pool capacity.
///
/// Exception safety: if fn throws on any participating thread, no further
/// chunks are handed out, every in-flight iteration finishes, and the
/// first exception is rethrown on the calling thread once the loop has
/// fully quiesced. The pool itself stays healthy: workers never die, and
/// the destructor joins each worker exactly once regardless of how many
/// loops failed.
class ThreadPool {
 public:
  /// `threads == 0` means hardware_concurrency (at least 1).
  explicit ThreadPool(std::size_t threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  std::size_t size() const { return workers_.size(); }

  /// True while the pool has work in flight: queued or running submitted
  /// tasks, or a parallel_for that has not yet quiesced. Instantaneous —
  /// new work may arrive right after it returns false — so it is a
  /// precondition check (see configure_global), not a synchronization
  /// primitive.
  bool busy();

  /// Enqueue a task; fire-and-forget (pair with wait()). On a pool that
  /// has been shut down the task runs inline on the calling thread
  /// instead of being silently parked in a queue no worker will drain —
  /// the degradation mode for stale global() references held across a
  /// configure_global().
  void submit(std::function<void()> task);

  /// Block until all submitted tasks have completed. Must not be called
  /// from a pool thread (the calling task is still in flight, so it would
  /// wait on itself) — use parallel_for for nested joins.
  void wait();

  /// Run fn(i) for i in [0, n) across the pool, blocking until done.
  /// Falls back to inline execution for n <= 1, single-worker pools, or a
  /// pool that has been shut down (a stale global() reference degrades to
  /// caller-inline execution instead of dangling or deadlocking).
  /// `fn` must be safe to invoke concurrently from multiple threads; the
  /// iteration-to-thread assignment is nondeterministic but every index
  /// runs at most once (exactly once when no iteration throws). Rethrows
  /// the first exception any iteration raised, after the loop quiesces.
  void parallel_for(std::size_t n, const std::function<void(std::size_t)>& fn);

  /// parallel_for with a work estimate: when n × work_per_item is below
  /// kParallelWorkFloor the loop runs inline on the calling thread, since
  /// the hand-off would cost more than the work. Same contract otherwise.
  void parallel_for(std::size_t n, std::size_t work_per_item,
                    const std::function<void(std::size_t)>& fn);

  /// Stop accepting queued work and join every worker. Idempotent and
  /// safe to call concurrently; the destructor calls it, so a pool that
  /// was shut down explicitly destructs without a second join.
  void shutdown();

  /// Process-wide shared pool (lazily constructed).
  static ThreadPool& global();

  /// Replace the process-wide pool with a fresh one of `threads` workers
  /// (0 = hardware_concurrency). For benches and tests that sweep thread
  /// counts. Mid-flight reconfiguration is rejected: if the current
  /// global pool has work in flight (busy()), this throws hsconas::Error
  /// and leaves the pool untouched — long-lived concurrent pool users
  /// (the serving lanes) must be stopped before resizing. The previous
  /// pool is shut down but kept alive until process exit, so a stale
  /// global() reference degrades to inline execution instead of
  /// dangling.
  static void configure_global(std::size_t threads);

 private:
  struct Task {
    std::function<void()> fn;
    /// submit()ed by a caller (counts toward busy()) vs an internal
    /// parallel_for helper (wind-down is covered by shutdown's join).
    bool external = true;
  };

  void worker_loop();
  void enqueue(std::function<void()> task, bool external);

  std::vector<std::thread> workers_;
  std::queue<Task> queue_;
  std::mutex mutex_;
  std::condition_variable cv_task_;
  std::condition_variable cv_done_;
  std::size_t in_flight_ = 0;
  bool stop_ = false;
  bool joined_ = false;  ///< workers_ already joined (guarded by mutex_)
  /// parallel_for calls currently between first chunk handout and full
  /// quiescence (any participating thread). Feeds busy().
  std::atomic<std::size_t> active_loops_{0};
  /// Queued or running submit()ed tasks (guarded by mutex_). Loop helper
  /// tasks are excluded: they outlive their loop by microseconds at most
  /// and are joined by shutdown(), so they must not make a quiesced pool
  /// look busy.
  std::size_t external_in_flight_ = 0;
};

}  // namespace hsconas::util
