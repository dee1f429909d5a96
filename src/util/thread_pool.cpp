#include "util/thread_pool.h"

#include <algorithm>
#include <atomic>
#include <exception>
#include <limits>
#include <memory>
#include <utility>

#include "obs/metrics.h"
#include "obs/timing.h"
#include "util/error.h"

namespace hsconas::util {

namespace {
// Pool health metrics: queue pressure (instantaneous + high-water) and the
// wall-clock cost of each dequeued task. One relaxed atomic per event.
obs::Gauge& queue_depth_gauge() {
  static obs::Gauge& g = obs::gauge("hsconas.pool.queue_depth");
  return g;
}
obs::Gauge& queue_depth_peak_gauge() {
  static obs::Gauge& g = obs::gauge("hsconas.pool.queue_depth_peak");
  return g;
}
// Every parallel_for call, and the subset that ran entirely on the
// calling thread (trivial loop, single-worker or stopped pool, or below
// the work floor). Their ratio is the inline share obs_report prints.
obs::Counter& loop_calls_counter() {
  static obs::Counter& c = obs::counter("hsconas.pool.parallel_for_calls");
  return c;
}
obs::Counter& loop_inline_counter() {
  static obs::Counter& c = obs::counter("hsconas.pool.parallel_for_inline");
  return c;
}
}  // namespace

ThreadPool::ThreadPool(std::size_t threads) {
  if (threads == 0) {
    threads = std::max<std::size_t>(1, std::thread::hardware_concurrency());
  }
  workers_.reserve(threads);
  for (std::size_t i = 0; i < threads; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() { shutdown(); }

void ThreadPool::shutdown() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stop_ = true;
    // Exactly-once join: a second shutdown (explicit call followed by the
    // destructor, or two racing callers) must not touch the threads
    // again. The winner flips joined_ under the lock and does the joins.
    if (joined_) return;
    joined_ = true;
  }
  cv_task_.notify_all();
  for (auto& w : workers_) w.join();
}

bool ThreadPool::busy() {
  if (active_loops_.load(std::memory_order_acquire) > 0) return true;
  std::lock_guard<std::mutex> lock(mutex_);
  return external_in_flight_ > 0;
}

void ThreadPool::submit(std::function<void()> task) {
  enqueue(std::move(task), /*external=*/true);
}

void ThreadPool::enqueue(std::function<void()> task, bool external) {
  static obs::Counter& submitted = obs::counter("hsconas.pool.tasks_submitted");
  {
    std::unique_lock<std::mutex> lock(mutex_);
    if (stop_) {
      // The pool is shut down (e.g. retired by configure_global while the
      // caller held a stale reference): no worker will ever drain the
      // queue, so parking the task there would lose it and leak
      // in_flight_. Degrade to inline execution.
      lock.unlock();
      task();
      return;
    }
    queue_.push(Task{std::move(task), external});
    ++in_flight_;
    if (external) ++external_in_flight_;
    const double depth = static_cast<double>(queue_.size());
    queue_depth_gauge().set(depth);
    queue_depth_peak_gauge().update_max(depth);
  }
  submitted.add();
  cv_task_.notify_one();
}

void ThreadPool::wait() {
  std::unique_lock<std::mutex> lock(mutex_);
  cv_done_.wait(lock, [this] { return in_flight_ == 0; });
}

namespace {

/// Per-parallel_for shared state. Helpers keep it (and the copied fn)
/// alive via shared_ptr, so a helper that wakes up after the loop already
/// finished just observes next >= n and returns without touching fn.
struct LoopState {
  /// Sentinel stored into `next` when an iteration throws: far above any
  /// real n, far enough below SIZE_MAX that racing fetch_adds cannot wrap.
  static constexpr std::size_t kAbort =
      std::numeric_limits<std::size_t>::max() / 2;

  std::atomic<std::size_t> next{0};
  std::atomic<std::size_t> completed{0};
  std::size_t n = 0;
  std::size_t chunk = 1;
  std::function<void(std::size_t)> fn;
  std::mutex mutex;
  std::condition_variable cv_done;
  std::exception_ptr error;  ///< first thrown exception (guarded by mutex)
};

/// Mark `count` iterations finished and wake the issuing thread when the
/// whole range is accounted for.
void finish_iterations(LoopState& s, std::size_t count) {
  const std::size_t done =
      s.completed.fetch_add(count, std::memory_order_acq_rel) + count;
  if (done == s.n) {
    // The lock pairs with the cv wait so the notification cannot slip
    // between the waiter's predicate check and its sleep.
    std::lock_guard<std::mutex> lock(s.mutex);
    s.cv_done.notify_all();
  }
}

void run_loop_chunks(LoopState& s) {
  for (;;) {
    const std::size_t begin =
        s.next.fetch_add(s.chunk, std::memory_order_relaxed);
    if (begin >= s.n) return;
    const std::size_t end = std::min(begin + s.chunk, s.n);
    bool threw = false;
    try {
      for (std::size_t i = begin; i < end; ++i) s.fn(i);
    } catch (...) {
      std::lock_guard<std::mutex> lock(s.mutex);
      if (!s.error) s.error = std::current_exception();
      threw = true;
    }
    if (threw) {
      // Accounted only after the handler has exited: once completed
      // reaches n the issuing thread may rethrow (and free) the exception,
      // so this thread must no longer hold it. Stop handing out chunks and
      // count both this chunk and the never-to-be-claimed tail, so
      // completed still sums to exactly n. Claimed-but-unfinished chunks
      // on other threads count themselves; a second thrower sees
      // tail >= kAbort and contributes only its own chunk.
      const std::size_t tail = s.next.exchange(LoopState::kAbort,
                                               std::memory_order_acq_rel);
      const std::size_t unclaimed = tail < s.n ? s.n - tail : 0;
      finish_iterations(s, (end - begin) + unclaimed);
      return;
    }
    finish_iterations(s, end - begin);
  }
}

}  // namespace

void ThreadPool::parallel_for(std::size_t n,
                              const std::function<void(std::size_t)>& fn) {
  loop_calls_counter().add();
  if (n == 0) return;
  bool stopped;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stopped = stop_;
  }
  if (n == 1 || workers_.size() <= 1 || stopped) {
    // Inline fallback (trivial loop, single worker, or a pool that was
    // shut down under a cached reference): exceptions propagate directly,
    // matching the rethrow-after-quiesce contract of the threaded path.
    loop_inline_counter().add();
    for (std::size_t i = 0; i < n; ++i) fn(i);
    return;
  }

  // Marks this pool busy() for the whole handout-to-quiescence window so
  // configure_global can refuse to retire a pool mid-loop.
  struct LoopGuard {
    std::atomic<std::size_t>& loops_count;
    explicit LoopGuard(std::atomic<std::size_t>& c) : loops_count(c) {
      loops_count.fetch_add(1, std::memory_order_acq_rel);
    }
    ~LoopGuard() { loops_count.fetch_sub(1, std::memory_order_acq_rel); }
  } loop_guard(active_loops_);

  auto state = std::make_shared<LoopState>();
  state->n = n;
  state->chunk = std::max<std::size_t>(1, n / (workers_.size() * 4));
  state->fn = fn;

  // The caller is one executor, so enqueue at most workers_ helpers and
  // never more than there are chunks left for them.
  const std::size_t total_chunks = (n + state->chunk - 1) / state->chunk;
  const std::size_t helpers =
      std::min(workers_.size(), total_chunks > 0 ? total_chunks - 1 : 0);
  for (std::size_t t = 0; t < helpers; ++t) {
    enqueue([state] { run_loop_chunks(*state); }, /*external=*/false);
  }

  // Work-first join: drain chunks on this thread, then sleep only while
  // another thread is actively finishing its last chunk. Completion is
  // counted per iteration, never per helper task, so this never waits on a
  // task that is still sitting in the queue — that is what makes nested
  // parallel_for calls from pool threads deadlock-free.
  run_loop_chunks(*state);
  std::exception_ptr error;
  {
    std::unique_lock<std::mutex> lock(state->mutex);
    state->cv_done.wait(lock, [&] {
      return state->completed.load(std::memory_order_acquire) == state->n;
    });
    // Take the exception out of the shared state: a helper task may still
    // hold the state and destroy it later, and must not release the
    // exception this thread is about to rethrow.
    error = std::exchange(state->error, nullptr);
  }
  // The loop has fully quiesced: no thread holds a chunk, so rethrowing
  // here cannot leave an iteration running behind the caller's back.
  if (error) std::rethrow_exception(error);
}

void ThreadPool::parallel_for(std::size_t n, std::size_t work_per_item,
                              const std::function<void(std::size_t)>& fn) {
  // n * work_per_item < kParallelWorkFloor, without forming the product.
  const bool below_floor =
      work_per_item == 0 || n <= (kParallelWorkFloor - 1) / work_per_item;
  if (n == 0 || !below_floor) {
    parallel_for(n, fn);
    return;
  }
  loop_calls_counter().add();
  loop_inline_counter().add();
  for (std::size_t i = 0; i < n; ++i) fn(i);
}

namespace {

/// Global-pool slot: an atomic current pointer plus a graveyard that owns
/// every pool ever installed. Retired pools are shut down (workers
/// joined) but not freed until exit, so code that cached a global()
/// reference across a configure_global() keeps a valid — merely inert —
/// pool whose parallel_for falls back to caller-inline execution.
std::atomic<ThreadPool*>& global_slot() {
  static std::atomic<ThreadPool*> slot{nullptr};
  return slot;
}

std::mutex& global_mutex() {
  static std::mutex m;
  return m;
}

std::vector<std::unique_ptr<ThreadPool>>& pool_graveyard() {
  static std::vector<std::unique_ptr<ThreadPool>> g;
  return g;
}

}  // namespace

ThreadPool& ThreadPool::global() {
  ThreadPool* p = global_slot().load(std::memory_order_acquire);
  if (p != nullptr) return *p;
  std::lock_guard<std::mutex> lock(global_mutex());
  p = global_slot().load(std::memory_order_relaxed);
  if (p == nullptr) {
    pool_graveyard().push_back(std::make_unique<ThreadPool>());
    p = pool_graveyard().back().get();
    global_slot().store(p, std::memory_order_release);
  }
  return *p;
}

void ThreadPool::configure_global(std::size_t threads) {
  std::lock_guard<std::mutex> lock(global_mutex());
  ThreadPool* old = global_slot().load(std::memory_order_relaxed);
  if (old != nullptr) {
    // Mid-flight reconfiguration is a checked error, not a race: a caller
    // that is inside parallel_for (or has tasks queued) on the current
    // pool would have its workers joined out from under it. Long-lived
    // pool users — serving lanes above all — must be stopped first.
    // The window between this check and shutdown() is still covered by
    // the stale-reference degradation: submit()/parallel_for on a
    // stopped pool run inline.
    if (old->busy()) {
      throw Error(
          "ThreadPool::configure_global: global pool has work in flight; "
          "stop serving lanes / drain parallel_for callers before "
          "resizing");
    }
    old->shutdown();
  }
  pool_graveyard().push_back(std::make_unique<ThreadPool>(threads));
  global_slot().store(pool_graveyard().back().get(),
                      std::memory_order_release);
}

void ThreadPool::worker_loop() {
  static obs::Counter& executed = obs::counter("hsconas.pool.tasks_executed");
  static obs::Histogram& task_ms = obs::histogram("hsconas.pool.task_ms");
  for (;;) {
    Task task;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      cv_task_.wait(lock, [this] { return stop_ || !queue_.empty(); });
      if (stop_ && queue_.empty()) return;
      task = std::move(queue_.front());
      queue_.pop();
      queue_depth_gauge().set(static_cast<double>(queue_.size()));
    }
    const std::uint64_t t0 = obs::monotonic_ns();
    task.fn();
    task_ms.record(static_cast<double>(obs::monotonic_ns() - t0) / 1e6);
    executed.add();
    {
      std::lock_guard<std::mutex> lock(mutex_);
      --in_flight_;
      if (task.external) --external_in_flight_;
      if (in_flight_ == 0) cv_done_.notify_all();
    }
  }
}

}  // namespace hsconas::util
