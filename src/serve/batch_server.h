#pragma once

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <memory>
#include <mutex>
#include <span>
#include <vector>

#include "core/arch.h"
#include "core/search_space.h"
#include "nn/quantize.h"
#include "util/thread_pool.h"

namespace hsconas::core {
class Supernet;
}

namespace hsconas::serve {

/// Knobs for the batch-scheduled model server (mirrors the
/// `hsconas serve` flags; see docs/SERVING.md).
struct ServerConfig {
  /// Flush a batch as soon as this many requests are queued.
  std::size_t batch_max = 8;
  /// ... or when the oldest queued request has waited this long.
  std::uint64_t deadline_us = 2000;
  /// Concurrent worker lanes; all of them run the server's one network.
  std::size_t workers = 2;
  /// Bounded request queue; submitters block (backpressure) when full.
  std::size_t queue_capacity = 256;
  /// Run lane forwards with the fused conv/BN/activation inference path.
  bool fuse = true;
  /// Weight-init seed of the served network.
  std::uint64_t seed = 42;
  /// Numeric type lane forwards compute in. kI8 calibrates the network
  /// once at construction (synthetic, seed-derived batches) and serves
  /// through the int8 GEMM; kF32 is the bit-for-bit status quo.
  nn::InferenceDType dtype = nn::InferenceDType::kF32;
  /// Calibration batches fed to the network when dtype == kI8.
  std::size_t calibration_batches = 2;
};

/// Where a request ended up, returned by BatchServer::infer. Tickets are
/// assigned in arrival (mutex-acquisition) order; batch ids in claim
/// order. FIFO scheduling means that when receipts are sorted by ticket,
/// (batch, batch_index) is lexicographically non-decreasing — the
/// property tests/serve pins.
struct Receipt {
  std::uint64_t ticket = 0;       ///< FIFO position at enqueue (0-based)
  std::uint64_t batch = 0;        ///< id of the batch that served it
  std::size_t batch_index = 0;    ///< row within that batch
  double latency_ms = 0.0;        ///< enqueue -> response, client-observed
};

/// Batch-scheduled inference server over a standalone (fixed-arch)
/// Supernet: requests from any number of client threads are collected
/// into batches — flushed at `batch_max` occupancy or when the oldest
/// request has waited `deadline_us` — and executed by `workers` lanes.
/// The lanes share one network: its eval forward writes nothing into it
/// (see nn::Module), so forwards run concurrently and every lane computes
/// the same bits by construction.
///
/// Memory discipline: tensor storage and kernel scratch come from the
/// thread-local block pool (tensor/workspace.h), so after the first few
/// batches every activation/batch tensor and every scratch lease reuses a
/// parked block and steady-state serving performs zero heap allocations
/// (verified by hsconas.tensor.pool.heap_allocs staying flat; see
/// docs/SERVING.md). Request bookkeeping lives on the caller's
/// stack and in a ring buffer pre-sized at construction.
///
/// Metrics (hsconas.serve.*): requests, rejected, batches, latency_ms,
/// forward_ms, batch_occupancy, queue_depth(+_peak).
class BatchServer {
 public:
  /// Builds one standalone network of `arch`, puts it in kEvalFused
  /// (config.fuse) or kEval mode, calibrates it when config.dtype is kI8,
  /// and starts the `workers` lanes.
  BatchServer(const core::SearchSpace& space, const core::Arch& arch,
              const ServerConfig& config);
  ~BatchServer();  ///< graceful: drains queued requests, then joins lanes

  BatchServer(const BatchServer&) = delete;
  BatchServer& operator=(const BatchServer&) = delete;

  /// Floats per request sample (C*H*W of the space's task geometry).
  std::size_t input_size() const { return input_size_; }
  /// Floats per response (num_classes logits).
  std::size_t output_size() const { return output_size_; }

  /// Synchronous inference: enqueue one sample, block until its batch
  /// completes, copy the logits row into `output`. Thread-safe; callers
  /// are served FIFO. Throws InvalidArgument on span-size mismatch,
  /// Error once shutdown has begun, and rethrows any exception the lane
  /// forward raised for this request's batch.
  Receipt infer(std::span<const float> input, std::span<float> output);

  /// Stop accepting requests, serve everything already queued, join the
  /// lanes. Idempotent; the destructor calls it.
  void shutdown();

  const ServerConfig& config() const { return config_; }

 private:
  struct Request;

  void lane();
  void run_batch(std::span<Request* const> batch, std::uint64_t batch_id);
  Request* pop_front_locked();

  ServerConfig config_;
  std::size_t input_size_ = 0;
  std::size_t output_size_ = 0;
  long channels_ = 0, height_ = 0, width_ = 0;

  /// Frozen after construction; every lane forwards through it.
  std::unique_ptr<core::Supernet> net_;

  std::mutex mutex_;
  std::condition_variable cv_work_;   ///< lanes: work available / stopping
  std::condition_variable cv_space_;  ///< submitters: queue has room
  std::condition_variable cv_done_;   ///< submitters: request completed
  std::vector<Request*> ring_;        ///< fixed-capacity FIFO (guarded)
  std::size_t head_ = 0;              ///< index of oldest queued request
  std::size_t queued_ = 0;            ///< live entries in ring_
  std::uint64_t next_ticket_ = 0;
  std::uint64_t next_batch_ = 0;
  bool stopping_ = false;

  /// Owns the lane threads. Declared last so its destructor (join) runs
  /// before the state above is torn down.
  util::ThreadPool lanes_;
};

}  // namespace hsconas::serve
