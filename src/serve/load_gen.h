#pragma once

#include <cstddef>
#include <cstdint>

#include "serve/batch_server.h"
#include "util/json.h"

namespace hsconas::serve {

/// Closed-loop load generator: `clients` concurrent callers, each holding
/// exactly one request in flight (issue -> wait -> issue). Offered load is
/// therefore bounded by clients / latency, the standard closed-loop model.
struct LoadGenConfig {
  std::size_t clients = 8;
  std::size_t requests_per_client = 50;
  /// Per-client requests issued (and measured into warm-up pools/caches)
  /// before the measured window starts.
  std::size_t warmup_per_client = 5;
  std::uint64_t seed = 7;  ///< input-synthesis seed
};

/// Aggregate of one load-generation run (the measured window only).
struct LoadGenReport {
  LoadGenConfig load;
  ServerConfig server;

  std::size_t total_requests = 0;
  std::size_t errors = 0;
  double duration_ms = 0.0;
  double throughput_rps = 0.0;

  // Client-observed latency over every measured request.
  double latency_mean_ms = 0.0;
  double latency_p50_ms = 0.0;
  double latency_p95_ms = 0.0;
  double latency_p99_ms = 0.0;
  double latency_max_ms = 0.0;

  // Scheduler behavior during the window (from hsconas.serve.* deltas).
  double batches = 0.0;
  double batch_occupancy_mean = 0.0;
  double queue_depth_peak = 0.0;

  // Memory discipline during the window: heap allocations that missed the
  // thread-local block pool (hsconas.tensor.pool.heap_allocs delta). A
  // steady-state window reports 0 here.
  double pool_heap_allocs = 0.0;
  double pool_hits = 0.0;

  /// Serialize under schema "hsconas.serving.v1" (BENCH_serving.json).
  util::Json to_json() const;
};

/// Drive `server` closed-loop and measure the steady-state window.
/// Synthesizes deterministic inputs per (client, request) so runs are
/// reproducible; responses are checked for finiteness, anything else
/// counts into `errors`.
LoadGenReport run_load(BatchServer& server, const LoadGenConfig& config);

}  // namespace hsconas::serve
